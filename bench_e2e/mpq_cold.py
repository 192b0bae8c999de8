"""``mpq-cold``: the paper's experiment — every request a distinct large query.

One closed-loop client sends distinct queries through
:class:`~repro.service.OptimizerService` over a warm
:class:`~repro.cluster.executors.PersistentProcessPoolExecutor` of
``nproc`` processes, asking for 4 workers (the CLI default), so every
request misses the cache and runs partitioned DP.  Requests come in rounds
of one query per (feature, join graph) pair, in seeded order; the timed
phase runs whole rounds until ``seconds`` have passed, so every run weighs
features and graphs alike.  Each feature has one table count.  Latency
metrics are interquartile means (the mean of the middle two) over the
four join graphs of each graph's median.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import random
import time

from common import Pass, RequestSpec, RssWatch, SetupSchedule, build_query, keep_answer
from tracing import RequestSpan
from repro.bench.traffic import settings_for
from repro.cluster.executors import PersistentProcessPoolExecutor
from repro.query.generator import SteinbrunnGenerator
from repro.query.io import query_from_dict, query_to_dict
from repro.query.query import JoinGraphKind
from repro.service import OptimizerService

NAME = "mpq-cold"


def reference_plans(query_dict: dict, feature: str):
    """Serial (one-partition) frontier of one query; runs in a pool worker."""
    service = OptimizerService(n_workers=1)
    return service.optimize(query_from_dict(query_dict), settings_for(feature)).plans


class MpqCold:
    def __init__(self, config: dict, seed: int) -> None:
        self.config = config
        self.nproc = os.cpu_count() or 1
        self._rng = random.Random(seed)
        self._generator = SteinbrunnGenerator(seed, clustered_tables=True)
        self.pool_dicts: list[dict] = []
        self.pool_feature: list[str] = []
        self.pool_kind: list[JoinGraphKind] = []
        self.rounds: list[list[RequestSpec]] = []
        self._references: dict[int, list] = {}

    def round(self, index: int) -> list[RequestSpec]:
        """Round ``index``: 12 fresh queries in seeded order, made on first use."""
        while len(self.rounds) <= index:
            specs = []
            for feature in ("plain", "orders", "parametric"):
                for kind in JoinGraphKind:
                    query = self._generator.query(self.config["tables"][feature], kind)
                    self.pool_dicts.append(query_to_dict(query))
                    self.pool_feature.append(feature)
                    self.pool_kind.append(kind)
                    specs.append((len(self.pool_dicts) - 1, feature))
            self._rng.shuffle(specs)
            self.rounds.append(
                [
                    RequestSpec(
                        rid=f"T{len(self.rounds)}-{slot}",
                        pool=pool_index,
                        feature=feature,
                        workers=self.config["workers"],
                    )
                    for slot, (pool_index, feature) in enumerate(specs)
                ]
            )
        return self.rounds[index]

    # ------------------------------------------------------------------ set-up

    def _set_up(self) -> PersistentProcessPoolExecutor:
        """Spawn the pool and run one small query per feature on every worker."""
        executor = PersistentProcessPoolExecutor(self.nproc)
        generator = SteinbrunnGenerator(0, clustered_tables=True)
        for feature in ("plain", "orders", "parametric"):
            query = generator.query(6, JoinGraphKind.STAR, name="W")
            executor.map_partitions(query, self.nproc, settings_for(feature))
        return executor

    def _timed_set_up(self, observed: Pass) -> OptimizerService:
        started = time.perf_counter()
        service = OptimizerService(executor=self._set_up())
        observed.setup_s.append(time.perf_counter() - started)
        return service

    # -------------------------------------------------------------------- pass

    def run(self, seconds: float, tracer=None) -> Pass:
        observed = Pass()
        rss = RssWatch()
        setups = SetupSchedule(self.config, tracer)
        service = self._timed_set_up(observed)
        rss.sample()
        completed, active = 0, 0.0
        try:
            # Whole rounds until ``seconds`` of them have run; a round's
            # queries are made and decoded while the clock is stopped.
            for index in itertools.count():
                if active >= seconds:
                    break
                specs = self.round(index)
                queries = [build_query(self.pool_dicts, spec) for spec in specs]
                started = time.perf_counter()
                for spec, query in zip(specs, queries):
                    settings = settings_for(spec.feature)
                    observed.attempted += 1
                    begin = time.perf_counter()
                    try:
                        with RequestSpan(tracer, spec.rid):
                            result = service.optimize(query, settings, spec.workers)
                    except Exception as error:  # noqa: BLE001 - counted as failed
                        observed.errors[spec.rid] = f"{type(error).__name__}: {error}"
                        continue
                    observed.latency_ms[spec.rid] = (time.perf_counter() - begin) * 1e3
                    keep_answer(observed, spec, result)
                    completed += 1
                active += time.perf_counter() - started
                rss.sample()
                while setups.due(active / seconds):
                    self._timed_set_up(observed).close()
        finally:
            rss.sample()
            cache = service.cache.snapshot()
            service.close()
        observed.qps = [completed / active]
        # Latency medians are taken per join graph, so each graph weighs
        # the same whichever side of a gap between graphs the median of
        # the mixture would fall on.
        observed.segments = [
            [rid for rid in observed.latency_ms if self.pool_kind[observed.specs[rid].pool] is kind]
            for kind in JoinGraphKind
        ]
        observed.peak_rss_mb = rss.total_mb()
        observed.dp_expected = len(observed.specs)
        observed.dp_counted = cache.misses
        observed.counters = {"dp_runs": cache.misses, "coalesced": 0}
        observed.notes["rounds"] = len(observed.specs) // len(self.rounds[0])
        observed.notes["tables"] = self.config["tables"]
        return observed

    # ------------------------------------------------------------------ checks

    def references(self, runs: list[Pass]) -> dict[str, list]:
        """Serial frontier for every request any pass sent, by request id.

        Each pool query's frontier is computed once, in ``nproc`` processes.
        """
        needed = sorted(
            {spec.pool for run in runs for spec in run.specs.values()}
            - set(self._references)
        )
        with concurrent.futures.ProcessPoolExecutor(self.nproc) as pool:
            futures = {
                index: pool.submit(
                    reference_plans,
                    self.pool_dicts[index],
                    self.pool_feature[index],
                )
                for index in needed
            }
            for index, future in futures.items():
                self._references[index] = future.result()
        return {
            rid: self._references[spec.pool]
            for run in runs
            for rid, spec in run.specs.items()
        }
