"""The optimizer-as-a-service front-end.

:class:`OptimizerService` turns the one-shot :func:`repro.optimize_mpq` into
a long-lived service suited to heavy query-optimization traffic:

* every request is canonicalized and fingerprinted
  (:mod:`repro.service.fingerprint`), so repeated — or merely isomorphic —
  queries are answered from a bounded LRU cache
  (:mod:`repro.service.cache`) in O(plan size) instead of O(DP);
* cache misses run the paper's Algorithm 1 on a pluggable executor; with a
  :class:`~repro.cluster.executors.PersistentProcessPoolExecutor`,
  :meth:`OptimizerService.optimize_batch` interleaves partition tasks from
  many concurrent queries onto one warm worker pool, so no query waits for
  another query's stragglers and no request pays pool startup;
* cached plans are stored in canonical table numbering and remapped to each
  requester's numbering on the way out (:mod:`repro.service.remap`), which
  keeps hits correct even when two clients number the same relations
  differently.

This is the substrate the ROADMAP's sharding/async directions build on: a
shard is an ``OptimizerService`` owning a fingerprint range, and an async
gateway is a thin wrapper over :meth:`optimize_batch`.
"""

from __future__ import annotations

# Imported eagerly: evaluating ``concurrent.futures.process`` lazily inside
# an ``except`` clause raises AttributeError (masking the real error) when
# the submodule was never imported — e.g. a serial executor raising before
# any process pool existed.
from concurrent.futures.process import BrokenProcessPool
import dataclasses
import threading
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.cluster.simulator import (
    DEFAULT_CLUSTER,
    ClusterModel,
    SimulatedTiming,
    simulate_mpq_run,
)
from repro.config import DEFAULT_SETTINGS, OptimizerSettings
from repro.core.constraints import usable_partitions
from repro.core.envelope import (
    FULL_THETA_DOMAIN,
    EnvelopeIndex,
    best_index_at,
    build_envelope_index,
)
from repro.core.master import MasterResult, PartitionExecutor
from repro.core.worker import PartitionResult, registry_generation
from repro.cluster.executors import SerialPartitionExecutor, executor_slots
from repro.cost.pruning import final_prune, make_pruning
from repro.plans.plan import Plan, plan_tie_key
from repro.query.query import Query
from repro.service.cache import CacheTier, PlanCache
from repro.service.fingerprint import (
    CanonicalForm,
    canonicalize,
    fingerprint_canonical,
    settings_signature,
)
from repro.service.provenance import Provenance, aggregate_worker_stats
from repro.service.remap import invert, remap_plan


#: ``CacheEntry.kind`` values: a scalar entry caches one optimization's
#: plan frontier; an envelope entry caches a parametric run's whole
#: lower-envelope frontier plus its breakpoint index, so every θ of the
#: query shape is answered from the one entry.
SCALAR_ENTRY = "scalar"
ENVELOPE_ENTRY = "envelope"


@dataclass
class CacheEntry:
    """What the cache retains per fingerprint: plans in canonical numbering.

    Storing plans canonically (rather than in the first requester's
    numbering) makes serving any isomorphic request a single remap; the
    simulated accounting is that of the original run, which is exactly what
    an identical request would have measured.  Public because the sharded
    gateway (:mod:`repro.service.gateway`) hands entries from a completed
    in-flight run directly to coalesced waiters.

    An entry is the cache's unit of *derived artifact*, not necessarily a
    single answer: an :data:`ENVELOPE_ENTRY` stores a parametric run's full
    lower-envelope frontier plus its breakpoint index, from which a
    θ-specific request is answered by O(log n) lookup
    (:meth:`select_index`) instead of a DP run.
    """

    canonical_plans: list[Plan]
    n_partitions: int
    simulated: SimulatedTiming
    #: Enumeration backend that computed the cached plans; replayed on hits
    #: so a cached answer stays attributable to the core that produced it.
    backend_used: str = ""
    #: How this entry came to be (backend, resolved settings signature,
    #: registry generation, creation time, aggregated worker stats).  What a
    #: persistent tier persists alongside the plans, and what invalidation
    #: predicates evaluate against.  ``None`` only for hand-built entries.
    provenance: Provenance | None = None
    #: :data:`SCALAR_ENTRY` or :data:`ENVELOPE_ENTRY`.
    kind: str = SCALAR_ENTRY
    #: Breakpoint index over ``canonical_plans`` for envelope entries.
    envelope: EnvelopeIndex | None = None

    def select_index(self, theta: float) -> int:
        """Position of the θ-optimal plan in ``canonical_plans``.

        Envelope entries bisect their breakpoint index; an entry without
        one (a scalar-kind parametric entry from a pre-envelope log) falls
        back to the linear reference rule — same selection, just O(n).
        """
        costs = [plan.cost for plan in self.canonical_plans]
        if self.envelope is not None:
            return self.envelope.select(costs, theta)
        return best_index_at(costs, theta)


@dataclass
class ServiceResult:
    """One request's answer: plans in the request's own table numbering."""

    plans: list[Plan]
    n_partitions: int
    fingerprint: str
    #: Whether this answer was served from the plan cache.
    cached: bool
    #: Simulated cluster accounting of the (possibly cached) optimization run.
    simulated_time_ms: float
    network_bytes: int
    #: Enumeration backend that produced the plans (for a cache hit: the
    #: backend of the original run).  Empty only for hand-built results.
    backend_used: str = ""
    #: The θ this result was bound to: ``plans`` holds exactly the one plan
    #: optimal at this parameter value.  ``None`` for unbound results (the
    #: whole frontier, parametric or not).
    theta: float | None = None

    @property
    def best(self) -> Plan:
        """Cheapest plan by the first metric (the plan a DBMS would run).

        Ties are broken by the deterministic cross-backend rule of
        :func:`repro.plans.plan.plan_tie_key` — cached answers therefore
        pick the same best plan as a fresh run on any backend.
        """
        if not self.plans:
            raise ValueError("optimization produced no plan")
        return min(self.plans, key=plan_tie_key)


def serve_from_result(
    result: ServiceResult,
    source: CanonicalForm,
    target: CanonicalForm,
    key: str,
    theta: float | None = None,
) -> ServiceResult:
    """Serve an isomorphic duplicate directly from another request's result.

    ``result`` holds plans in the *source* request's own table numbering;
    composing the source numbering with the inverse of the target numbering
    relabels them into the duplicate requester's numbering without touching
    the cache — the serving path when no cache entry exists (``capacity=0``,
    or an entry evicted between the run and the duplicate being served) and
    for async waiters coalesced onto a batched flight.

    With ``theta``, the unbound frontier is narrowed to its θ-optimal plan
    *before* relabeling (one remap instead of a frontier's worth).  The
    selection key never reads table numbers, so binding on the source
    plans picks the same plan every consumer of this frontier picks.
    """
    inverse = invert(target.numbering)
    mapping = tuple(
        inverse[source.numbering[original]]
        for original in range(len(source.numbering))
    )
    if theta is not None:
        source_plans = [
            result.plans[best_index_at([plan.cost for plan in result.plans], theta)]
        ]
    else:
        source_plans = result.plans
    if mapping == tuple(range(len(mapping))):
        # Identical numbering (the common case when one hot query object is
        # coalesced many times): plans are frozen, so they can be shared
        # as-is — only the list and the flags are fresh.
        plans = list(source_plans)
    else:
        plans = [remap_plan(plan, mapping) for plan in source_plans]
    return dataclasses.replace(
        result,
        plans=plans,
        fingerprint=key,
        cached=True,
        theta=theta if theta is not None else result.theta,
    )


def bind_result_theta(
    result: ServiceResult,
    theta: float | None,
    envelope: EnvelopeIndex | None = None,
) -> ServiceResult:
    """Narrow a fresh (unbound) envelope result to its θ-optimal plan.

    Used by the miss path: the DP always runs θ-free and produces the full
    frontier; the request that led it may still have asked for a concrete
    θ.  ``envelope`` (positionally aligned with ``result.plans`` — costs
    are numbering-invariant, so the entry's canonical index applies to the
    requester-numbered plans directly) makes the bind O(log n); without it
    the linear reference rule selects identically.
    """
    if theta is None:
        return result
    costs = [plan.cost for plan in result.plans]
    if envelope is not None:
        index = envelope.select(costs, theta)
    else:
        index = best_index_at(costs, theta)
    return dataclasses.replace(result, plans=[result.plans[index]], theta=theta)


class OptimizerService:
    """A long-lived optimizer serving a stream of queries with plan caching.

    Args:
        n_workers: default upper bound on the partitions per cache miss
            (overridable per call).  A miss runs
            ``usable_partitions(n, min(n_workers, executor.slots), space)``
            partitions, and the bound is not part of the cache key: every
            worker count of one shape shares one entry, whose
            ``n_partitions`` is the count that computed it.
        settings: default :class:`~repro.config.OptimizerSettings`.
        executor: how partition tasks physically run.  Defaults to the
            in-process serial executor (deterministic, zero setup, one slot,
            so misses run unpartitioned); pass a
            :class:`~repro.cluster.executors.PersistentProcessPoolExecutor`
            for true parallelism with warm workers — ``optimize_batch`` then
            batches all queries' partition tasks onto the one pool.  An
            executor without a ``slots`` attribute counts as one slot.
        cache_capacity: bound on resident cached fingerprints (LRU beyond).
        cache: a ready-made cache tier to serve through instead of the
            default in-memory LRU — e.g. a
            :class:`~repro.service.tiers.TieredPlanCache` whose disk tier
            survives restarts.  When given, ``cache_capacity`` is ignored;
            anything satisfying :class:`~repro.service.cache.CacheTier`
            works, since the service only uses the protocol surface.
        cluster: simulated-cluster parameters for the reported accounting.
    """

    def __init__(
        self,
        n_workers: int = 8,
        settings: OptimizerSettings = DEFAULT_SETTINGS,
        executor: PartitionExecutor | None = None,
        cache_capacity: int = 256,
        cluster: ClusterModel = DEFAULT_CLUSTER,
        cache: CacheTier[CacheEntry] | None = None,
    ) -> None:
        self.n_workers = n_workers
        self.settings = settings
        self.executor = executor if executor is not None else SerialPartitionExecutor()
        self.cluster = cluster
        self.cache: CacheTier[CacheEntry] = (
            cache if cache is not None else PlanCache(capacity=cache_capacity)
        )
        self._counter_lock = threading.Lock()
        self._envelope_hits = 0

    @property
    def envelope_hits(self) -> int:
        """θ-specific answers served from a materialized envelope (no DP)."""
        with self._counter_lock:
            return self._envelope_hits

    # ------------------------------------------------------------------ single

    def optimize(
        self,
        query: Query,
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
    ) -> ServiceResult:
        """Optimize one query, serving repeated/isomorphic requests from cache.

        The fingerprint is θ-free, so a θ-bound parametric request hits the
        same entry as every other θ of its shape; the hit is answered by
        envelope lookup, and only the first request per shape runs a DP.
        """
        settings = settings if settings is not None else self.settings
        workers = n_workers if n_workers is not None else self.n_workers
        canonical = canonicalize(query)
        key = fingerprint_canonical(canonical, settings, workers)
        entry = self.cache.get(key)
        if entry is not None:
            return self.serve_entry(entry, canonical, key, theta=settings.theta)
        result, entry = self.run_misses_with_entries(
            [(query, canonical, key)], settings, workers
        )[0]
        return bind_result_theta(result, settings.theta, envelope=entry.envelope)

    # ------------------------------------------------------------------- batch

    def optimize_batch(
        self,
        queries: Iterable[Query],
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
    ) -> list[ServiceResult]:
        """Optimize many queries, batching their partition tasks together.

        Lookup order is the input order; duplicate (or isomorphic) queries
        within the batch are optimized once and the rest served as cache
        hits.  When the executor exposes ``submit_partitions`` (the
        persistent pool), *all* missing queries' partition tasks are
        submitted before any result is awaited, so the warm workers drain
        one interleaved task queue instead of running query-by-query.
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
        misses: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            entry = self.cache.get(key)
            if entry is not None:
                results[index] = self.serve_entry(
                    entry, canonicals[index], key, theta=settings.theta
                )
            else:
                misses.setdefault(key, []).append(index)

        # One representative query per missing fingerprint actually runs.
        unique = [(key, indices[0]) for key, indices in misses.items()]
        miss_outcomes = self.run_misses_with_entries(
            [
                (requests[index], canonicals[index], key)
                for key, index in unique
            ],
            settings,
            workers,
        )
        for (key, representative), (entry_result, entry) in zip(unique, miss_outcomes):
            results[representative] = bind_result_theta(
                entry_result, settings.theta, envelope=entry.envelope
            )
            for index in misses[key][1:]:
                # Isomorphic duplicate within the batch: computed once above
                # and served from the run's own entry — present even when
                # the cache retains nothing (capacity=0) or already evicted
                # it.  The duplicate's initial lookup counted a miss (the
                # entry did not exist yet); reclassify it as the hit it
                # ultimately was, so the operator-facing hit rate agrees
                # with the ``cached`` flags on the results.
                self.cache.reclassify_miss_as_hit()
                results[index] = self.serve_entry(
                    entry, canonicals[index], key, theta=settings.theta
                )
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    # ----------------------------------------------------------------- helpers

    def run_misses(
        self,
        items: Sequence[tuple[Query, CanonicalForm, str]],
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
    ) -> list[ServiceResult]:
        """Optimize queries already known to be absent from the cache.

        Each item is ``(query, canonical form, fingerprint)`` — the caller
        has done the lookup (and, for the gateway, the in-flight
        registration).  Partition tasks from all items interleave on the
        executor when it supports batching; every completed run is cached
        under its fingerprint before its result is returned.
        """
        return [
            result
            for result, __ in self.run_misses_with_entries(items, settings, n_workers)
        ]

    def run_misses_with_entries(
        self,
        items: Sequence[tuple[Query, CanonicalForm, str]],
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
    ) -> list[tuple[ServiceResult, CacheEntry]]:
        """:meth:`run_misses`, returning each run's cache entry alongside.

        The DP always runs θ-free — a θ binding on ``settings`` is stripped
        here, so the run materializes the full envelope and *one* run
        answers every θ of the shape.  Results are correspondingly unbound;
        callers bind per requester (:func:`bind_result_theta`).  Handing
        the entry back (rather than making callers re-peek the cache) is
        what lets the gateway serve coalesced followers their own θ even
        when the cache retains nothing.
        """
        settings = settings if settings is not None else self.settings
        workers = n_workers if n_workers is not None else self.n_workers
        settings = settings.without_theta()
        gathered = self._run_many(
            [(query, workers, settings) for query, __, __ in items]
        )
        return [
            self._complete_run(query, canonical, key, settings, workers, partition_results)
            for (query, canonical, key), partition_results in zip(items, gathered)
        ]

    def _run_many(
        self, tasks: Sequence[tuple[Query, int, OptimizerSettings]]
    ) -> list[list[PartitionResult]]:
        """Run several queries' partition tasks, interleaved when possible.

        ``workers`` is an upper bound: a miss is split into no more
        partitions than the executor runs at once, since partitions beyond
        its slots run one after another and only add duplicated work.
        """
        slots = executor_slots(self.executor)
        partition_counts = [
            usable_partitions(query.n_tables, min(workers, slots), settings.plan_space)
            for query, workers, settings in tasks
        ]
        submit = getattr(self.executor, "submit_partitions", None)
        if submit is None:
            return [
                self.executor.map_partitions(query, n_partitions, settings)
                for (query, __, settings), n_partitions in zip(tasks, partition_counts)
            ]
        futures = [
            submit(query, n_partitions, settings)
            for (query, __, settings), n_partitions in zip(tasks, partition_counts)
        ]
        try:
            return [
                [future.result() for future in query_futures]
                for query_futures in futures
            ]
        except BrokenProcessPool:
            # A worker died mid-batch; every in-flight future on the broken
            # pool is lost.  Fall back to query-by-query map_partitions,
            # which carries the executor's own rebuild-on-break recovery.
            close = getattr(self.executor, "close", None)
            if close is not None:
                close()
            return [
                self.executor.map_partitions(query, n_partitions, settings)
                for (query, __, settings), n_partitions in zip(tasks, partition_counts)
            ]

    def _complete_run(
        self,
        query: Query,
        canonical: CanonicalForm,
        key: str,
        settings: OptimizerSettings,
        workers: int,
        partition_results: list[PartitionResult],
    ) -> tuple[ServiceResult, CacheEntry]:
        """Final-prune a miss's partition results, cache them, build the answer.

        A parametric run's frontier is cached as an :data:`ENVELOPE_ENTRY`:
        the breakpoint index is extracted once here (and serialized with the
        entry, never recomputed downstream), and the provenance records the
        θ-domain the envelope covers.  ``settings`` is already θ-free (see
        :meth:`run_misses_with_entries`); the returned result is unbound.
        """
        pruning = make_pruning(settings, n_tables=query.n_tables)
        plans = final_prune(pruning, (result.plans for result in partition_results))
        master = MasterResult(
            plans=plans,
            n_partitions=len(partition_results),
            requested_workers=workers,
            partition_results=partition_results,
        )
        simulated = simulate_mpq_run(self.cluster, query, master)
        canonical_plans = [remap_plan(plan, canonical.numbering) for plan in plans]
        if settings.parametric and plans:
            kind = ENVELOPE_ENTRY
            envelope = build_envelope_index(canonical_plans)
            theta_domain = FULL_THETA_DOMAIN
        else:
            kind = SCALAR_ENTRY
            envelope = None
            theta_domain = None
        provenance = Provenance(
            backend_used=master.backend_used,
            settings_signature=settings_signature(settings),
            registry_generation=registry_generation(),
            created_at_s=time.time(),
            n_partitions=master.n_partitions,
            worker_stats=aggregate_worker_stats(
                [result.stats for result in partition_results]
            ),
            theta_domain=theta_domain,
        )
        entry = CacheEntry(
            canonical_plans=canonical_plans,
            n_partitions=master.n_partitions,
            simulated=simulated,
            backend_used=master.backend_used,
            provenance=provenance,
            kind=kind,
            envelope=envelope,
        )
        self.cache.put(key, entry)
        result = ServiceResult(
            plans=plans,
            n_partitions=master.n_partitions,
            fingerprint=key,
            cached=False,
            simulated_time_ms=simulated.total_ms,
            network_bytes=simulated.network_bytes,
            backend_used=master.backend_used,
        )
        return result, entry

    def serve_entry(
        self,
        entry: CacheEntry,
        canonical: CanonicalForm,
        key: str,
        theta: float | None = None,
    ) -> ServiceResult:
        """Remap a cached entry's canonical plans into the requester's numbering.

        With ``theta``, the entry's breakpoint index binds the request to
        its θ-optimal plan first, so only that one plan is remapped — the
        envelope fast path every front-end's hit serving funnels through;
        each such bind counts one ``envelope_hits``.
        """
        mapping = invert(canonical.numbering)
        if theta is not None:
            index = entry.select_index(theta)
            plans = [remap_plan(entry.canonical_plans[index], mapping)]
            with self._counter_lock:
                self._envelope_hits += 1
        else:
            plans = [remap_plan(plan, mapping) for plan in entry.canonical_plans]
        return ServiceResult(
            plans=plans,
            n_partitions=entry.n_partitions,
            fingerprint=key,
            cached=True,
            simulated_time_ms=entry.simulated.total_ms,
            network_bytes=entry.simulated.network_bytes,
            backend_used=entry.backend_used,
            theta=theta,
        )

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release executor resources and any cache-tier file handles."""
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()
        cache_close = getattr(self.cache, "close", None)
        if cache_close is not None:
            cache_close()

    def __enter__(self) -> "OptimizerService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
