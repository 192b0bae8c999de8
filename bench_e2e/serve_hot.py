"""``serve-hot``: warm multi-tenant traffic through the asyncio front door.

A Zipf multi-tenant mix from :mod:`repro.bench.traffic`, with θ-bound
parametric requests, runs open loop on one asyncio loop through
:class:`~repro.service.AsyncOptimizerGateway` (default arguments).  Set-up
warms every fingerprint the mix will touch, so the timed phase runs no DP:
canonicalization, cache lookup, remap, θ-binding and the front door do all
the work.  Every request is a fresh query object, decoded before it is
due; a stated share carries a seeded relabeling of its table numbers.

The timed phase alternates, ``segments`` times, an open-loop part at a
fixed rate (evenly spaced) and a closed-loop part in which ``nproc``
clients measure the saturation throughput (skipped in the traced pass);
each metric is the interquartile mean over the segments.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import itertools
import os
import random
import selectors
import time

from common import (
    OpenLoopRecord,
    Pass,
    RequestSpec,
    RssWatch,
    build_query,
    check_answers,
    keep_answer,
    p50,
    seeded_permutation,
    SetupSchedule,
)
from tracing import RequestSpan
from repro.bench.traffic import TrafficProfile, generate_traffic, settings_for
from repro.query import io as query_io
from repro.query.generator import SteinbrunnGenerator
from repro.query.query import JoinGraphKind
from repro.service import AsyncOptimizerGateway, GatewayOverloadedError, OptimizerService
from repro.service.fingerprint import fingerprint

NAME = "serve-hot"
#: Closed-loop queries decoded at a time, with the clock stopped.
CLOSED_BATCH = 512


def arrival_offsets(rate: float, duration: float) -> list[float]:
    """Evenly spaced arrivals at ``rate``/s over ``duration`` s.

    Even spacing keeps arrival bursts out of the measured queueing, so runs
    with different seeds differ only in the request mix.
    """
    return [index / rate for index in range(int(rate * duration))]


class TrafficMix:
    """Seeded request specs from :func:`~repro.bench.traffic.generate_traffic`.

    ``open_specs`` is the generated schedule, once (request ids ``T0``...);
    :meth:`closed_specs` cycles it without end (``C0``...).  Each request
    draws its own relabeling (for a ``relabel_share`` of them) or, for a
    ``new_share`` of them, is replaced by a never-seen query.  The schedule's query objects are dropped: the pool
    is kept as dicts and every request is built fresh when it is sent.
    """

    def __init__(self, config: dict, seed: int, n_open: int) -> None:
        self.config = config
        self.seed = seed
        profile = TrafficProfile(
            n_requests=n_open,
            n_unique=config["n_unique"],
            tables=tuple(config["tables"]),
            parametric_thetas=tuple(config["thetas"]),
            seed=seed,
        )
        self.pool_dicts: dict[int, dict] = {}
        self.schedule = []
        for request in generate_traffic(profile):
            if request.rank not in self.pool_dicts:
                self.pool_dicts[request.rank] = query_io.query_to_dict(request.query)
            self.schedule.append(
                (request.rank, request.feature, request.n_workers, request.theta, request.tenant)
            )
        self._new_pools = itertools.count(config["n_unique"])
        self.settings = {}
        for __, feature, __, theta, __ in self.schedule:
            if (feature, theta) not in self.settings:
                base = settings_for(feature)
                self.settings[feature, theta] = base if theta is None else base.replace(theta=theta)
        self.open_specs = list(itertools.islice(self._specs("T"), n_open))
        self._references: dict[tuple[int, str], list] = {}
        self._reference_service = OptimizerService(n_workers=1)

    def closed_specs(self):
        """The closed-loop request stream: endless, the same for a seed."""
        return self._specs("C")

    def _specs(self, prefix: str):
        rng = random.Random(f"{prefix}-{self.seed}")
        generator = SteinbrunnGenerator(rng.randrange(2**32), clustered_tables=True)
        low, high = self.config["tables"]
        for index, (rank, feature, workers, theta, tenant) in enumerate(
            itertools.cycle(self.schedule)
        ):
            pool, perm = rank, None
            if rng.random() < self.config["new_share"]:
                pool = next(self._new_pools)
                query = generator.query(rng.randint(low, high), rng.choice(list(JoinGraphKind)))
                self.pool_dicts[pool] = query_io.query_to_dict(query)
            elif rng.random() < self.config["relabel_share"]:
                perm = seeded_permutation(rng, len(self.pool_dicts[rank]["tables"]))
            yield RequestSpec(f"{prefix}{index}", pool, feature, workers, theta, tenant, perm)

    def is_new(self, pool: int) -> bool:
        """Whether ``pool`` is a never-seen query (not in the Zipf pool)."""
        return pool >= self.config["n_unique"]

    def warm_keys(self) -> list[tuple[int, str, int]]:
        """Distinct (pool query, feature, workers) of the schedule, sorted."""
        return sorted({(rank, feature, workers) for rank, feature, workers, __, __ in self.schedule})

    def fingerprints(self) -> set[str]:
        return {
            fingerprint(query_io.query_from_dict(self.pool_dicts[pool]), settings_for(feature), workers)
            for pool, feature, workers in self.warm_keys()
        }

    def reference(self, spec: RequestSpec) -> list:
        """Serial θ-free frontier of ``spec``'s pool query, computed once."""
        key = (spec.pool, spec.feature)
        if key not in self._references:
            query = query_io.query_from_dict(self.pool_dicts[spec.pool])
            self._references[key] = self._reference_service.optimize(
                query, settings_for(spec.feature)
            ).plans
        return self._references[key]

    def references(self, runs: list[Pass]) -> dict:
        """The reference of every request whose answer ``runs`` still keep."""
        return {rid: self.reference(spec) for run in runs for rid, spec in run.specs.items()}


def open_loop_notes(parts: list[tuple[OpenLoopRecord, float]], limit_ms: float) -> dict:
    """Generator lateness and backlog over the open-loop parts ``(record, end)``.

    A part's backlog counts requests due at least ``limit_ms`` before the
    part ended that had still not completed when it ended.
    """
    late = [value for record, __ in parts for value in record.lateness_ms()]
    return {
        "lateness_ms_p50": p50(late) if late else 0.0,
        "lateness_ms_max": max(late) if late else 0.0,
        "backlog_max": max(
            record.backlog(end - limit_ms / 1e3, end) for record, end in parts
        ),
    }


class ServeHot:
    def __init__(self, config: dict, seed: int, seconds: float) -> None:
        self.config = config
        self.nproc = os.cpu_count() or 1
        segments = config["segments"]
        self.segment_s = seconds * (1 - config["saturation_share"]) / segments
        self.saturation_s = seconds * config["saturation_share"] / segments
        self.offsets = arrival_offsets(config["rate"], self.segment_s)
        self.mix = TrafficMix(config, seed, len(self.offsets) * segments)

    def references(self, runs: list[Pass]) -> dict:
        return self.mix.references(runs)

    def run(self, seconds: float, tracer=None) -> Pass:
        # select() wakes timers to the microsecond; epoll rounds up to a
        # whole millisecond, which would read as generator lateness.
        with asyncio.Runner(
            loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())
        ) as runner:
            return runner.run(self._run(tracer))

    async def _set_up(self) -> AsyncOptimizerGateway:
        front = AsyncOptimizerGateway()
        for pool, feature, workers in self.mix.warm_keys():
            spec = RequestSpec(rid="W", pool=pool, feature=feature, workers=workers)
            await front.optimize(
                build_query(self.mix.pool_dicts, spec), settings_for(feature), workers
            )
        return front

    async def _timed_set_up(self, observed: Pass) -> AsyncOptimizerGateway:
        started = time.perf_counter()
        front = await self._set_up()
        observed.setup_s.append(time.perf_counter() - started)
        return front

    async def _run(self, tracer) -> Pass:
        observed = Pass()
        rss = RssWatch()
        setups = SetupSchedule(self.config, tracer)
        front = await self._timed_set_up(observed)
        rss.sample()
        warm_runs = front.gateway.stats().optimizations
        observed.dp_expected = len(self.mix.fingerprints())
        segments = self.config["segments"]
        per_segment = len(self.offsets)
        closed = self.mix.closed_specs()
        parts = []
        try:
            before = front.stats()
            for segment in range(segments):
                specs = self.mix.open_specs[segment * per_segment : (segment + 1) * per_segment]
                queries = [build_query(self.mix.pool_dicts, spec) for spec in specs]
                parts.append(await self._open_loop(front, specs, queries, tracer, observed))
                observed.segments.append([spec.rid for spec in specs])
                rss.sample()
                if tracer is None:
                    observed.qps.append(await self._closed_loop(front, closed, observed))
                if setups.due((segment + 1) / segments):
                    await (await self._timed_set_up(observed)).close()
                    gc.collect()
            after = front.stats()
            observed.counters = {
                "aio_requests": after.requests - before.requests,
                "aio_fast_path": after.fast_path_hits - before.fast_path_hits,
                "aio_memo_hits": after.result_memo_hits - before.result_memo_hits,
                "aio_rejections": after.rejections - before.rejections,
                "dp_runs": after.gateway.optimizations - before.gateway.optimizations,
                "coalesced": after.gateway.coalesced - before.gateway.coalesced,
            }
            observed.dp_counted = after.gateway.optimizations
        finally:
            await front.close()
        observed.notes["timed"] = {
            "rate": self.config["rate"],
            **open_loop_notes(parts, self.config["latency_limit_ms"]),
        }
        observed.notes["dp_runs_in_setup"] = warm_runs
        observed.peak_rss_mb = rss.total_mb()
        return observed

    async def _one(self, front, spec: RequestSpec, query, tracer, observed) -> bool:
        """One request: serve ``query`` (``spec``'s, already decoded), keep."""
        settings = self.mix.settings[spec.feature, spec.theta]
        try:
            with RequestSpan(tracer, spec.rid):
                result = await front.optimize(query, settings, spec.workers, tenant=spec.tenant)
        except GatewayOverloadedError as error:
            observed.errors[spec.rid] = f"refused: {error}"
            return False
        except Exception as error:  # noqa: BLE001 - counted as failed
            observed.errors[spec.rid] = f"{type(error).__name__}: {error}"
            return False
        keep_answer(observed, spec, result)
        return True

    async def _closed_loop(self, front, stream, observed) -> float:
        """Saturation throughput: ``nproc`` client tasks, each waiting for its answer.

        Queries from ``stream`` are decoded in batches while the clock is
        stopped.  The part's answers are checked, and dropped, at its end.
        """
        completed, active, sent = 0, 0.0, []
        while active < self.saturation_s:
            batch = collections.deque(
                (spec, build_query(self.mix.pool_dicts, spec))
                for spec in itertools.islice(stream, CLOSED_BATCH)
            )
            started = time.perf_counter()
            end = started + self.saturation_s - active

            async def client() -> int:
                done = 0
                while batch and time.perf_counter() < end:
                    spec, query = batch.popleft()
                    sent.append(spec.rid)
                    done += await self._one(front, spec, query, None, observed)
                    # A cache hit never suspends; yield so the other client runs.
                    await asyncio.sleep(0)
                return done

            completed += sum(await asyncio.gather(*[client() for __ in range(self.nproc)]))
            active += time.perf_counter() - started
        observed.attempted += len(sent)
        check_answers(observed, sent, self.mix.reference)
        return completed / active

    async def _open_loop(self, front, specs, queries, tracer, observed):
        """Send ``queries`` at the arrival offsets from loop timers; await every answer.

        Latency runs from each request's due time.
        """
        loop = asyncio.get_running_loop()
        record = OpenLoopRecord()
        tasks: set[asyncio.Task] = set()

        async def timed(index: int, spec: RequestSpec, query) -> None:
            record.sent[index] = time.perf_counter()
            if await self._one(front, spec, query, tracer, observed):
                record.done[index] = time.perf_counter()
                observed.latency_ms[spec.rid] = record.latency_ms(index)

        def fire(index: int, spec: RequestSpec, query) -> None:
            task = loop.create_task(timed(index, spec, query))
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        # The loop clock and perf_counter are both the monotonic clock;
        # timers fire within the selector's resolution (microseconds for
        # select()).
        lead = loop.time() - time.perf_counter()
        start = time.perf_counter() + 0.02
        for offset, spec, query in zip(self.offsets, specs, queries):
            index = record.add(start + offset)
            loop.call_at(start + offset + lead, fire, index, spec, query)
        await asyncio.sleep(start + self.segment_s - time.perf_counter())
        while tasks:
            await asyncio.gather(*list(tasks))
        observed.attempted += len(specs)
        return record, start + self.segment_s
