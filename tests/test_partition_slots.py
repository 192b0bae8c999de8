"""``workers`` is an upper bound: executor slots cap it, the key ignores it.

A miss is split into ``usable_partitions(n, min(workers, slots), space)``
partitions, where ``slots`` is how many partition tasks the executor runs
at once.  The fingerprint leaves parallelism out, so requests for one
shape with any worker count share one cache entry and one DP run through
every front door.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.cluster.executors import (
    PersistentProcessPoolExecutor,
    ProcessPoolPartitionExecutor,
    RetryingPartitionExecutor,
    SerialPartitionExecutor,
    ThreadPoolPartitionExecutor,
    executor_slots,
)
from repro.core.serial import best_plan, optimize_serial
from repro.query.generator import SteinbrunnGenerator
from repro.service import (
    AsyncOptimizerGateway,
    NetworkOptimizerGateway,
    OptimizerService,
    ShardedOptimizerGateway,
)
from tests.test_net import ServerThread

WORKER_COUNTS = (1, 2, 4, 8)


class CountingExecutor(SerialPartitionExecutor):
    """Serial executor recording the partition count of every run."""

    def __init__(self) -> None:
        self.runs: list[int] = []

    def map_partitions(self, query, n_partitions, settings):
        self.runs.append(n_partitions)
        return super().map_partitions(query, n_partitions, settings)


class SlotlessExecutor:
    """An executor predating ``slots``: it only maps partitions."""

    def __init__(self) -> None:
        self.runs: list[int] = []
        self._serial = SerialPartitionExecutor()

    def map_partitions(self, query, n_partitions, settings):
        self.runs.append(n_partitions)
        return self._serial.map_partitions(query, n_partitions, settings)


class TestExecutorSlots:
    def test_each_executor_declares_its_slots(self):
        default_processes = getattr(os, "process_cpu_count", os.cpu_count)() or 1
        assert SerialPartitionExecutor().slots == 1
        assert ThreadPoolPartitionExecutor(max_workers=8).slots == 1
        assert ProcessPoolPartitionExecutor(max_workers=3).slots == 3
        assert ProcessPoolPartitionExecutor().slots == default_processes
        # Slots come from the configuration; no process is started here.
        persistent = PersistentProcessPoolExecutor(max_workers=2)
        assert persistent.slots == 2
        assert persistent.pools_started == 0
        assert PersistentProcessPoolExecutor().slots == default_processes
        assert RetryingPartitionExecutor(persistent).slots == 2
        assert RetryingPartitionExecutor().slots == 1
        assert RetryingPartitionExecutor(SlotlessExecutor()).slots == 1
        assert executor_slots(SlotlessExecutor()) == 1

    def test_slots_are_read_only(self):
        for executor in (
            SerialPartitionExecutor(),
            ThreadPoolPartitionExecutor(),
            ProcessPoolPartitionExecutor(max_workers=2),
            PersistentProcessPoolExecutor(max_workers=2),
            RetryingPartitionExecutor(),
        ):
            with pytest.raises(AttributeError):
                executor.slots = 4

    def test_process_pools_reject_zero_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolPartitionExecutor(max_workers=0)
        with pytest.raises(ValueError):
            PersistentProcessPoolExecutor(max_workers=0)


class TestServicePartitionCount:
    def test_pool_of_two_runs_two_partitions_when_eight_are_asked(self):
        queries = SteinbrunnGenerator(61).queries(3, n_tables=7)
        with PersistentProcessPoolExecutor(max_workers=2) as executor:
            service = OptimizerService(n_workers=8, executor=executor)
            results = [service.optimize(query) for query in queries]
            assert executor.tasks_run == 2 * len(queries)
        for query, result in zip(queries, results):
            assert result.n_partitions == 2
            assert result.best.cost == best_plan(optimize_serial(query)).cost

    def test_batched_misses_are_capped_too(self):
        queries = SteinbrunnGenerator(62).queries(3, n_tables=7)
        with PersistentProcessPoolExecutor(max_workers=2) as executor:
            service = OptimizerService(n_workers=8, executor=executor)
            results = service.optimize_batch(queries)
            assert executor.tasks_run == 2 * len(queries)
        assert [result.n_partitions for result in results] == [2, 2, 2]

    @pytest.mark.parametrize("executor_type", [CountingExecutor, SlotlessExecutor])
    def test_one_slot_runs_one_partition(self, executor_type):
        executor = executor_type()
        service = OptimizerService(n_workers=8, executor=executor)
        queries = SteinbrunnGenerator(63).queries(3, n_tables=7)
        for query in queries:
            assert service.optimize(query).n_partitions == 1
        assert executor.runs == [1, 1, 1]

    def test_hits_report_the_resolved_count(self):
        query = SteinbrunnGenerator(64).query(7)
        with PersistentProcessPoolExecutor(max_workers=2) as executor:
            service = OptimizerService(n_workers=8, executor=executor)
            first = service.optimize(query)
            hits = [service.optimize(query, n_workers=w) for w in WORKER_COUNTS]
        entry = service.cache.peek(first.fingerprint)
        assert entry.n_partitions == entry.provenance.n_partitions == 2
        assert first.n_partitions == 2
        for hit in hits:
            assert hit.cached
            assert hit.n_partitions == 2


class TestOneRunPerShape:
    """One shape, workers 1, 2, 4 and 8: exactly one DP run per front door."""

    def setup_method(self):
        self.query = SteinbrunnGenerator(65).query(7)
        self.reference = best_plan(optimize_serial(self.query)).cost

    def test_optimizer_service(self):
        executor = CountingExecutor()
        service = OptimizerService(executor=executor)
        results = [service.optimize(self.query, n_workers=w) for w in WORKER_COUNTS]
        assert len(executor.runs) == 1
        assert [result.cached for result in results] == [False, True, True, True]
        assert all(result.best.cost == self.reference for result in results)

    def test_sharded_gateway(self):
        with ShardedOptimizerGateway(n_shards=4) as gateway:
            results = [gateway.optimize(self.query, n_workers=w) for w in WORKER_COUNTS]
            stats = gateway.stats()
        assert stats.optimizations == 1
        assert len({result.fingerprint for result in results}) == 1
        assert all(result.best.cost == self.reference for result in results)

    def test_async_gateway_coalesces_onto_one_queued_entry(self):
        async def scenario():
            async with AsyncOptimizerGateway(n_shards=2) as front:
                results = await asyncio.gather(
                    *(front.optimize(self.query, n_workers=w) for w in WORKER_COUNTS)
                )
                return results, front.stats()

        results, stats = asyncio.run(scenario())
        assert stats.gateway.optimizations == 1
        assert stats.coalesced == len(WORKER_COUNTS) - 1
        assert all(result.best.cost == self.reference for result in results)

    def test_network_gateway_to_a_shard_server(self, tmp_path):
        with ServerThread(f"unix:{tmp_path / 'shard.sock'}") as running:
            with NetworkOptimizerGateway([f"unix:{tmp_path / 'shard.sock'}"]) as gateway:
                results = [
                    gateway.optimize(self.query, n_workers=w) for w in WORKER_COUNTS
                ]
            assert running.server.gateway.stats().optimizations == 1
        assert [result.cached for result in results] == [False, True, True, True]
        assert all(result.best.cost == self.reference for result in results)
