"""``net-churn``: the same kind of mix over the wire, with a disk tier in play.

Two ``python -m repro shard-server`` processes with ``--cache-dir`` disk
tiers serve a :class:`~repro.service.NetworkOptimizerGateway` (default
arguments).  Each server's memory tier (``--cache-size``) is smaller than
its share of the working set, so the timed phase mixes memory hits, disk
hits and a stated share of never-seen fingerprints; those run DP on the
shard's handler threads and append to its log beside the reads.  The
flush policy is the server default: write-through, no fsync.

Load comes from at most ``nproc`` client threads.  The timed phase
alternates, ``segments`` times, an open-loop part at a fixed rate (evenly
spaced; a request waits for a free client thread, and its latency runs from
its due time) and a closed-loop part for the saturation throughput
(skipped in the traced pass); each metric is the interquartile mean over
the segments.  In the traced pass the servers start through
``shard_launcher.py``, which installs the server-side timing wrappers and
then runs the same ``shard-server`` command.
"""

from __future__ import annotations

import collections
import itertools
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from common import (
    OpenLoopRecord,
    Pass,
    RequestSpec,
    RssWatch,
    build_query,
    check_answers,
    keep_answer,
    SetupSchedule,
)
from serve_hot import CLOSED_BATCH, TrafficMix, arrival_offsets, open_loop_notes
from tracing import RequestSpan
from repro.bench.traffic import settings_for
from repro.cluster.network import recv_frame
from repro.service import NetworkOptimizerGateway
from repro.service.net import Address

NAME = "net-churn"
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
N_SHARDS = 2


class ShardProcesses:
    """Two shard-server processes on unix sockets under ``directory``."""

    def __init__(self, directory: Path, cache_size: int, trace_dir: str | None) -> None:
        self.directory = directory
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        self.specs = [f"unix:{directory / f's{index}.sock'}" for index in range(N_SHARDS)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.processes = []
        for index, spec in enumerate(self.specs):
            arguments = [
                "--listen", spec,
                "--shard-id", str(index),
                "--cache-dir", str(directory),
                "--cache-size", str(cache_size),
            ]
            if trace_dir is None:
                command = [sys.executable, "-m", "repro", "shard-server", *arguments]
            else:
                command = [
                    sys.executable, str(HERE / "shard_launcher.py"),
                    "--trace-dir", trace_dir, "--", *arguments,
                ]
            log = open(directory / f"shard-{index}.out", "w")
            self.processes.append(
                subprocess.Popen(command, env=env, stdout=log, stderr=subprocess.STDOUT)
            )
            log.close()

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Block until every shard answers the handshake."""
        deadline = time.monotonic() + timeout_s
        for spec, process in zip(self.specs, self.processes):
            while True:
                if process.poll() is not None:
                    raise RuntimeError(f"shard server {spec} exited with {process.returncode}")
                try:
                    with Address.parse(spec).connect(1.0) as sock:
                        if recv_frame(sock) is not None:
                            break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError(f"shard server {spec} did not come up")
                time.sleep(0.01)

    def stop(self) -> None:
        """SIGTERM (the server drains, flushes and exits) and wait."""
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in self.processes:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    def log_sizes(self) -> tuple[int, int]:
        """(bytes of every shard log, entries written to them)."""
        total = entries = 0
        for log in self.directory.glob("shard-*.log"):
            total += log.stat().st_size
            with open(log) as handle:
                entries += sum(1 for line in handle if '"t": "put"' in line or '"t":"put"' in line)
        return total, entries


class NetChurn:
    def __init__(self, config: dict, seed: int, seconds: float) -> None:
        self.config = config
        self.nproc = os.cpu_count() or 1
        segments = config["segments"]
        self.segment_s = seconds * (1 - config["saturation_share"]) / segments
        self.saturation_s = seconds * config["saturation_share"] / segments
        self.offsets = arrival_offsets(config["rate"], self.segment_s)
        # A ``new_share`` of requests asks for a never-seen query.
        self.mix = TrafficMix(config, seed, len(self.offsets) * segments)
        self.fingerprints = self.mix.fingerprints()
        self.attempt = 0

    def references(self, runs: list[Pass]) -> dict:
        return self.mix.references(runs)

    def _set_up(self, directory: Path, tracer) -> tuple[ShardProcesses, NetworkOptimizerGateway]:
        shards = ShardProcesses(
            directory,
            self.config["cache_size"],
            tracer.out_dir if tracer is not None else None,
        )
        try:
            shards.wait_ready()
            gateway = NetworkOptimizerGateway(shards.specs)
            queries = [
                (build_query(self.mix.pool_dicts, RequestSpec("W", pool, feature, workers)), feature, workers)
                for pool, feature, workers in self.mix.warm_keys()
            ]
            with ThreadPoolExecutor(self.nproc) as threads:
                list(
                    threads.map(
                        lambda item: gateway.optimize(item[0], settings_for(item[1]), item[2]),
                        queries,
                    )
                )
        except BaseException:
            shards.stop()
            raise
        return shards, gateway

    def _timed_set_up(self, observed: Pass, tracer):
        self.attempt += 1
        started = time.perf_counter()
        shards, gateway = self._set_up(Path(".bench_e2e_out") / "net" / f"a{self.attempt}", tracer)
        observed.setup_s.append(time.perf_counter() - started)
        return shards, gateway

    def run(self, seconds: float, tracer=None) -> Pass:
        observed = Pass()
        rss = RssWatch()
        setups = SetupSchedule(self.config, tracer)
        shards, gateway = self._timed_set_up(observed, tracer)
        segments = self.config["segments"]
        per_segment = len(self.offsets)
        closed = self.mix.closed_specs()
        parts = []
        try:
            rss.sample()
            before = gateway.stats()
            for segment in range(segments):
                specs = self.mix.open_specs[segment * per_segment : (segment + 1) * per_segment]
                parts.append(self._open_loop(gateway, specs, tracer, observed))
                observed.segments.append([spec.rid for spec in specs])
                rss.sample()
                if tracer is None:
                    observed.qps.append(self._closed_loop(gateway, closed, observed))
                if setups.due((segment + 1) / segments):
                    spare_shards, spare_gateway = self._timed_set_up(observed, tracer)
                    spare_gateway.close()
                    spare_shards.stop()
            after = gateway.stats()
            served = [
                after["shards"][name]["served"] - before["shards"][name]["served"]
                for name in after["shards"]
            ]
            observed.counters = {
                "dp_runs": _sum(after, "optimizations") - _sum(before, "optimizations"),
                "coalesced": _sum(after, "coalesced") - _sum(before, "coalesced"),
                "shard_share_max": max(served) / sum(served),
                # The gateway's default is no retry: an overloaded shard's
                # rejection reaches the client (and counts as failed).
                "overload_retries": sum(
                    error.startswith("GatewayOverloadedError")
                    for error in observed.errors.values()
                ),
            }
            observed.dp_counted = _sum(after, "optimizations")
        finally:
            gateway.close()
            shards.stop()
        sent_new = {pool for pool in observed.pools if self.mix.is_new(pool)}
        # One DP run per unique fingerprint: the warmed working set plus
        # every never-seen query answered.
        observed.dp_expected = len(self.fingerprints) + len(sent_new)
        log_bytes, entries = shards.log_sizes()
        observed.counters["tier_log_bytes"] = log_bytes
        observed.counters["tier_bytes_per_entry"] = log_bytes / entries if entries else 0
        observed.notes["timed"] = {
            "rate": self.config["rate"],
            **open_loop_notes(parts, self.config["latency_limit_ms"]),
        }
        observed.notes["new_fingerprints_sent"] = len(sent_new)
        observed.notes["working_set"] = len(self.fingerprints)
        observed.notes["memory_tier_per_shard"] = self.config["cache_size"]
        observed.notes["flush_policy"] = "write-through, no fsync (server default)"
        observed.peak_rss_mb = rss.total_mb()
        return observed

    def _one(self, gateway, spec: RequestSpec, query, tracer, observed) -> bool:
        settings = self.mix.settings[spec.feature, spec.theta]
        try:
            with RequestSpan(tracer, spec.rid):
                result = gateway.optimize(query, settings, spec.workers, tenant=spec.tenant)
        except Exception as error:  # noqa: BLE001 - counted as failed
            observed.errors[spec.rid] = f"{type(error).__name__}: {error}"
            return False
        keep_answer(observed, spec, result)
        return True

    def _open_loop(self, gateway, specs, tracer, observed):
        """``nproc`` client threads send ``specs`` when due; latency from due."""
        record = OpenLoopRecord()
        start = time.perf_counter() + 0.02
        for offset in self.offsets:
            record.add(start + offset)

        def send(index: int) -> None:
            spec = specs[index]
            query = build_query(self.mix.pool_dicts, spec)
            delay = record.due[index] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record.sent[index] = time.perf_counter()
            if self._one(gateway, spec, query, tracer, observed):
                record.done[index] = time.perf_counter()
                observed.latency_ms[spec.rid] = record.latency_ms(index)

        with ThreadPoolExecutor(self.nproc) as threads:
            list(threads.map(send, range(len(specs))))
        observed.attempted += len(specs)
        return record, start + self.segment_s

    def _closed_loop(self, gateway, stream, observed) -> float:
        """Saturation throughput of ``nproc`` closed-loop client threads.

        Queries from ``stream`` are decoded in batches while the clock is
        stopped.  The part's answers are checked, and dropped, at its end.
        """
        completed, active, sent = 0, 0.0, []
        with ThreadPoolExecutor(self.nproc) as threads:
            while active < self.saturation_s:
                batch = collections.deque(
                    (spec, build_query(self.mix.pool_dicts, spec))
                    for spec in itertools.islice(stream, CLOSED_BATCH)
                )
                started = time.perf_counter()
                end = started + self.saturation_s - active

                def client(__) -> int:
                    done = 0
                    while time.perf_counter() < end:
                        try:
                            spec, query = batch.popleft()
                        except IndexError:
                            break
                        sent.append(spec.rid)
                        done += self._one(gateway, spec, query, None, observed)
                    return done

                completed += sum(threads.map(client, range(self.nproc)))
                active += time.perf_counter() - started
        observed.attempted += len(sent)
        check_answers(observed, sent, self.mix.reference)
        return completed / active


def _sum(stats: dict, counter: str) -> int:
    return sum(shard.get(counter, 0) for shard in stats["shards"].values())
