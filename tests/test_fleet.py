"""The shard-fleet supervisor: restarts, live rebalancing, hedging.

Four layers, cheapest first:

* **ring owners** — :meth:`ConsistentHashRing.owners` (the hedge target and
  migration destination) is the route plus distinct clockwise successors;
* **snapshot codec and op** — the ``snapshot`` control frames
  (keys/export/import/evict) move cache entries between in-process
  :class:`ShardServer` instances losslessly, refuse imports while
  draining, and reject malformed snapshots with typed errors;
* **supervision** — killing a shard process gets it restarted by the
  monitor with a fresh pid, re-admitted by a connected router through the
  breaker's half-open probe, and (with a cache dir) warm again from its
  own disk log;
* **live rebalancing** — the acceptance criterion: a 64-client replay over
  a 3-shard fleet, with a 4th shard added mid-replay, pays exactly one DP
  run per unique fingerprint — the moved keys' entries were shipped to the
  new owner before any router learned the new ring — and returns
  bit-identical plans.  Failures mid-shipment (the target dying) roll the
  whole rebalance back: routing unchanged, no entry lost, no client hung.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.bench.traffic import (
    TrafficProfile,
    generate_traffic,
    replay_threaded,
    unique_fingerprints,
)
from repro.cluster.network import recv_frame, send_frame
from repro.cluster.serialization import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    snapshot_from_wire,
    snapshot_to_wire,
)
from repro.query.generator import SteinbrunnGenerator
from repro.query.io import query_to_dict
from repro.service import (
    ConsistentHashRing,
    FleetError,
    FleetRebalanceError,
    NetworkOptimizerGateway,
    ShardFleet,
    ShardServer,
    ShardUnavailableError,
)
from repro.service.fingerprint import fingerprint
from repro.service.net import result_to_wire


# ------------------------------------------------------------------ ring owners


class TestRingOwners:
    def test_first_owner_is_the_route(self):
        ring = ConsistentHashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        for seed in range(20):
            key = f"{seed:08x}" + "0" * 56
            owners = ring.owners(key, 2)
            assert owners[0] == ring.route(key)

    def test_owners_are_distinct(self):
        ring = ConsistentHashRing()
        for name in ("a", "b", "c", "d"):
            ring.add(name)
        for seed in range(20):
            owners = ring.owners(f"{seed:08x}" + "f" * 56, 3)
            assert len(owners) == len(set(owners)) == 3

    def test_count_clamped_to_shard_count(self):
        ring = ConsistentHashRing()
        ring.add("only")
        assert ring.owners("ab" * 32, 5) == ["only"]

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().owners("ab" * 32)

    def test_second_owner_changes_when_first_removed(self):
        # The hedge target is exactly where the key lands if its owner
        # disappears — the property rebalancing and hedging both lean on.
        ring = ConsistentHashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        for seed in range(20):
            key = f"{seed:08x}" + "a" * 56
            first, second = ring.owners(key, 2)
            ring.remove(first)
            assert ring.route(key) == second
            ring.add(first)


# --------------------------------------------------------------- snapshot codec


class TestSnapshotCodec:
    def test_round_trip(self):
        records = [
            {"t": "put", "k": "aa", "entry": {"plans": [1]}},
            {"t": "put", "k": "bb", "entry": {"plans": [2]}},
        ]
        assert snapshot_from_wire(snapshot_to_wire(records)) == records

    @pytest.mark.parametrize(
        "wire",
        [
            {"format": "wrong", "version": SNAPSHOT_VERSION, "records": []},
            {"format": SNAPSHOT_FORMAT, "version": 99, "records": []},
            {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION},
            {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "records": [{"t": "header"}],
            },
            {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "records": [{"t": "put", "k": 7, "entry": {}}],
            },
            {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "records": [{"t": "put", "k": "aa", "entry": "not a dict"}],
            },
        ],
    )
    def test_malformed_rejected(self, wire):
        with pytest.raises(ValueError):
            snapshot_from_wire(wire)


# ------------------------------------------------- snapshot op between servers


class ServerThread:
    """Run a :class:`ShardServer` on its own event loop in a daemon thread."""

    def __init__(self, listen: str, **kwargs) -> None:
        self.server = ShardServer(listen, **kwargs)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "server never started"

    def _run(self) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            await self.server.start()
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(main())

    def stop(self) -> None:
        if self._loop is not None and not self.server._stopped.is_set():
            asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(10)
        self._thread.join(10)
        self.server.gateway.close()

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def request(server: ServerThread, payload: dict) -> dict:
    """One fresh-connection request/response past the hello."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    with sock:
        sock.connect(server.server.address.path)
        hello = recv_frame(sock)
        assert hello is not None and hello["op"] == "hello"
        send_frame(sock, payload)
        response = recv_frame(sock)
    assert response is not None
    return response


class TestSnapshotOp:
    def test_export_import_evict_moves_entries(self, tmp_path):
        queries = SteinbrunnGenerator(21).queries(3, n_tables=4)
        with (
            ServerThread(f"unix:{tmp_path / 'a.sock'}", n_workers=2) as alpha,
            ServerThread(f"unix:{tmp_path / 'b.sock'}", n_workers=2) as beta,
        ):
            for query in queries:
                assert request(
                    alpha, {"op": "optimize", "query": query_to_dict(query)}
                )["ok"]
            keys = request(alpha, {"op": "snapshot", "mode": "keys"})["keys"]
            assert len(keys) == len(queries)

            exported = request(
                alpha, {"op": "snapshot", "mode": "export", "keys": keys}
            )
            records = snapshot_from_wire(exported["snapshot"])
            assert sorted(record["k"] for record in records) == sorted(keys)

            imported = request(
                beta,
                {"op": "snapshot", "mode": "import", "snapshot": exported["snapshot"]},
            )
            assert imported["imported"] == len(keys)
            assert sorted(request(beta, {"op": "snapshot", "mode": "keys"})["keys"]) == sorted(keys)

            # The shipped entries answer on the new owner without a DP run.
            for query in queries:
                response = request(
                    beta, {"op": "optimize", "query": query_to_dict(query)}
                )
                assert response["result"]["cached"] is True
            stats = request(beta, {"op": "stats"})["stats"]
            assert stats["optimizations"] == 0
            assert stats["snapshot_imported"] == len(keys)

            evicted = request(
                alpha, {"op": "snapshot", "mode": "evict", "keys": keys}
            )
            assert evicted["evicted"] == len(keys)
            assert request(alpha, {"op": "snapshot", "mode": "keys"})["keys"] == []

    def test_import_identical_to_source_results(self, tmp_path):
        query = SteinbrunnGenerator(22).query(5)
        with (
            ServerThread(f"unix:{tmp_path / 'a.sock'}", n_workers=2) as alpha,
            ServerThread(f"unix:{tmp_path / 'b.sock'}", n_workers=2) as beta,
        ):
            source = request(alpha, {"op": "optimize", "query": query_to_dict(query)})
            keys = request(alpha, {"op": "snapshot", "mode": "keys"})["keys"]
            snapshot = request(
                alpha, {"op": "snapshot", "mode": "export", "keys": keys}
            )["snapshot"]
            request(beta, {"op": "snapshot", "mode": "import", "snapshot": snapshot})
            shipped = request(beta, {"op": "optimize", "query": query_to_dict(query)})
            assert shipped["result"]["plans"] == source["result"]["plans"]

    def test_import_refused_while_draining(self, tmp_path):
        with ServerThread(f"unix:{tmp_path / 'a.sock'}", n_workers=2) as server:
            server.server._draining = True
            try:
                response = request(
                    server,
                    {
                        "op": "snapshot",
                        "mode": "import",
                        "snapshot": snapshot_to_wire([]),
                    },
                )
                assert response["ok"] is False
                assert response["error"]["type"] == "draining"
                # Export stays available: a decommissioned shard must still
                # be able to give its entries away.
                assert request(server, {"op": "snapshot", "mode": "keys"})["ok"]
            finally:
                server.server._draining = False

    def test_malformed_snapshot_is_bad_request(self, tmp_path):
        with ServerThread(f"unix:{tmp_path / 'a.sock'}", n_workers=2) as server:
            for payload in (
                {"op": "snapshot", "mode": "teleport"},
                {"op": "snapshot", "mode": "import", "snapshot": {"format": "nope"}},
                {"op": "snapshot", "mode": "export", "keys": "not-a-list"},
            ):
                response = request(server, payload)
                assert response["ok"] is False
                assert response["error"]["type"] == "bad-request"


# ------------------------------------------------------------------ supervision


def wait_until(predicate, timeout_s: float = 20.0, interval_s: float = 0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError("condition never became true")


def optimize_until_served(gateway, queries, timeout_s: float = 20.0):
    """Retry a query batch through breaker-open windows; fail on timeout."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return [gateway.optimize(query) for query in queries]
        except ShardUnavailableError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


class TestFleetSupervision:
    def test_restart_readmission_and_warm_recovery(self, tmp_path):
        queries = SteinbrunnGenerator(31).queries(6, n_tables=4)
        with ShardFleet(
            2,
            tmp_path / "socks",
            cache_dir=tmp_path / "cache",
            n_workers=2,
            health_interval_s=0.05,
            backoff_base_s=0.05,
            log_dir=tmp_path / "logs",
            membership_path=tmp_path / "membership.json",
        ) as fleet:
            with NetworkOptimizerGateway(
                fleet.endpoints(), overload_retries=100, reset_timeout_s=0.2
            ) as gateway:
                fleet.attach_router(gateway)
                first = [gateway.optimize(query) for query in queries]
                assert all(result.plans for result in first)

                victim = fleet._handles["shard-0"]
                old_pid = victim.process.pid
                victim.process.kill()
                wait_until(
                    lambda: fleet.stats()["restarts"] >= 1
                    and fleet._handles["shard-0"].alive()
                )
                stats = fleet.stats()
                assert stats["shards"]["shard-0"]["pid"] != old_pid
                assert stats["shards"]["shard-0"]["restarts"] == 1

                # The router re-admits the replacement through its breaker's
                # half-open probe — same endpoint, no topology change — and
                # the replacement recovered its cache from its disk log, so
                # nothing is re-optimized.
                second = optimize_until_served(gateway, queries)
                assert all(result.cached for result in second)
                assert [result_to_wire(r)["plans"] for r in first] == [
                    result_to_wire(r)["plans"] for r in second
                ]
            # Supervisor log files exist for CI to upload on failure.
            logs = sorted(p.name for p in (tmp_path / "logs").iterdir())
            assert logs == ["shard-0.log", "shard-1.log"]

    def test_membership_file_tracks_topology(self, tmp_path):
        import json

        membership = tmp_path / "membership.json"
        with ShardFleet(
            2,
            tmp_path / "socks",
            n_workers=2,
            membership_path=membership,
        ) as fleet:
            published = json.loads(membership.read_text())
            assert published["format"] == "repro-fleet"
            assert sorted(published["shards"]) == ["shard-0", "shard-1"]
            fleet.add_shard()
            published = json.loads(membership.read_text())
            assert sorted(published["shards"]) == ["shard-0", "shard-1", "shard-2"]
        # After stop the fleet has no members.
        assert json.loads(membership.read_text())["shards"] == {}

    def test_fleet_validates_inputs(self, tmp_path):
        with pytest.raises(ValueError):
            ShardFleet(0, tmp_path / "socks")
        fleet = ShardFleet(1, tmp_path / "socks")
        with pytest.raises(FleetError):
            fleet.add_shard()  # not started


# ------------------------------------------------------------- live rebalancing


class TestLiveRebalance:
    def test_64_client_replay_with_mid_replay_expansion(self, tmp_path):
        """The acceptance criterion: adding a 4th shard mid-replay moves
        keys with zero additional DP runs — the sum of per-shard
        optimizations stays exactly one per unique fingerprint, and every
        plan is bit-identical to its pre-rebalance answer."""
        profile = TrafficProfile(n_requests=96, n_unique=10, tables=(4, 5))
        schedule = generate_traffic(profile)
        expected = unique_fingerprints(schedule)
        with ShardFleet(
            3,
            tmp_path / "socks",
            cache_dir=tmp_path / "cache",
            n_workers=2,
            max_in_flight=64,
            membership_path=tmp_path / "membership.json",
        ) as fleet:
            with NetworkOptimizerGateway(
                fleet.endpoints(), overload_retries=500, request_timeout_s=120.0
            ) as gateway:
                fleet.attach_router(gateway)
                warmup = replay_threaded(gateway, schedule, n_clients=64)
                baseline = {
                    result.fingerprint: result_to_wire(result)["plans"]
                    for result in warmup.results
                }

                half = len(schedule) // 2
                first = replay_threaded(gateway, schedule[:half], n_clients=64)
                added = fleet.add_shard()
                second = replay_threaded(gateway, schedule[half:], n_clients=64)

                stats = gateway.stats()
                fleet_stats = fleet.stats()
            per_shard = {
                name: shard["optimizations"]
                for name, shard in stats["shards"].items()
            }
            # Zero extra DP runs: the unique set was optimized exactly once,
            # before, during, and after the expansion.
            assert sum(per_shard.values()) == len(expected), per_shard
            assert added in per_shard and per_shard[added] == 0
            assert fleet_stats["snapshot_shipped"] > 0
            assert fleet_stats["rebalances"] == 1
            # Plans are bit-identical across the flip.
            for result in [*first.results, *second.results]:
                assert result.cached
                assert result_to_wire(result)["plans"] == baseline[result.fingerprint]

    def test_remove_shard_ships_entries_to_survivors(self, tmp_path):
        queries = SteinbrunnGenerator(41).queries(8, n_tables=4)
        with ShardFleet(3, tmp_path / "socks", n_workers=2) as fleet:
            with NetworkOptimizerGateway(
                fleet.endpoints(), overload_retries=100
            ) as gateway:
                fleet.attach_router(gateway)
                first = [gateway.optimize(query) for query in queries]
                fleet.remove_shard("shard-1")
                assert gateway.shard_names() == ["shard-0", "shard-2"]
                # Every entry the leaving shard held was shipped to its new
                # owner before routers dropped it: still zero re-runs.
                second = [gateway.optimize(query) for query in queries]
                assert all(result.cached for result in second)
                assert [result_to_wire(r)["plans"] for r in first] == [
                    result_to_wire(r)["plans"] for r in second
                ]
            with pytest.raises(ValueError):
                fleet.remove_shard("shard-7")

    def test_target_killed_mid_shipment_rolls_back(self, tmp_path):
        """Kill the new shard mid-snapshot-shipment: the rebalance rolls
        back with no lost or duplicated entries and no client hangs."""
        queries = SteinbrunnGenerator(42).queries(8, n_tables=4)
        with ShardFleet(2, tmp_path / "socks", n_workers=2) as fleet:
            with NetworkOptimizerGateway(
                fleet.endpoints(), overload_retries=100
            ) as gateway:
                fleet.attach_router(gateway)
                for query in queries:
                    gateway.optimize(query)

                real_call = fleet._shard_call

                def sabotaged(spec, payload, timeout_s=30.0):
                    if payload.get("mode") == "import":
                        # The import target (the half-provisioned shard, not
                        # yet registered) dies mid-shipment.
                        raise OSError("target shard died mid-shipment")
                    return real_call(spec, payload, timeout_s)

                fleet._shard_call = sabotaged
                try:
                    with pytest.raises(FleetRebalanceError):
                        fleet.add_shard()
                finally:
                    fleet._shard_call = real_call

                # Rollback: routers never learned the new shard, the fleet
                # did not register it, and no source entry moved — every key
                # is still served from its old owner's cache.
                assert gateway.shard_names() == ["shard-0", "shard-1"]
                assert sorted(fleet.endpoints()) == ["shard-0", "shard-1"]
                assert fleet.stats()["rebalances"] == 0
                results = [gateway.optimize(query) for query in queries]
                assert all(result.cached for result in results)
                # And the fleet still works: a clean retry succeeds.
                added = fleet.add_shard()
                after = [gateway.optimize(query) for query in queries]
                assert all(result.cached for result in after)
                assert added in gateway.shard_names()

    def test_source_shard_killed_mid_shipment(self, tmp_path):
        """A *real* SIGKILL of a source shard mid-shipment: the rebalance
        rolls back, the supervisor restarts the victim, and — because its
        cache log survived — every entry is served warm afterwards."""
        queries = SteinbrunnGenerator(44).queries(8, n_tables=4)
        with ShardFleet(
            2,
            tmp_path / "socks",
            cache_dir=tmp_path / "cache",
            n_workers=2,
            health_interval_s=0.05,
            backoff_base_s=0.5,
        ) as fleet:
            with NetworkOptimizerGateway(
                fleet.endpoints(), overload_retries=100, reset_timeout_s=0.2
            ) as gateway:
                fleet.attach_router(gateway)
                for query in queries:
                    gateway.optimize(query)
                real_call = fleet._shard_call

                def sabotaged(spec, payload, timeout_s=30.0):
                    if payload.get("mode") == "keys" and "shard-0" in spec:
                        fleet._handles["shard-0"].process.kill()
                    return real_call(spec, payload, timeout_s)

                fleet._shard_call = sabotaged
                try:
                    with pytest.raises(FleetRebalanceError):
                        fleet.add_shard()
                finally:
                    fleet._shard_call = real_call

                assert gateway.shard_names() == ["shard-0", "shard-1"]
                wait_until(
                    lambda: fleet.stats()["restarts"] >= 1
                    and fleet._handles["shard-0"].alive()
                )
                # The restarted source recovered its log: nothing was lost.
                results = optimize_until_served(gateway, queries)
                assert all(result.cached for result in results)
                # A clean retry of the expansion now succeeds.
                fleet.add_shard()
                after = optimize_until_served(gateway, queries)
                assert all(result.cached for result in after)

    def test_remove_shard_shipping_failure_keeps_shard(self, tmp_path):
        queries = SteinbrunnGenerator(43).queries(6, n_tables=4)
        with ShardFleet(2, tmp_path / "socks", n_workers=2) as fleet:
            with NetworkOptimizerGateway(
                fleet.endpoints(), overload_retries=100
            ) as gateway:
                fleet.attach_router(gateway)
                for query in queries:
                    gateway.optimize(query)
                real_call = fleet._shard_call

                def sabotaged(spec, payload, timeout_s=30.0):
                    if payload.get("mode") == "import":
                        raise OSError("import target unreachable")
                    return real_call(spec, payload, timeout_s)

                fleet._shard_call = sabotaged
                try:
                    with pytest.raises(FleetRebalanceError):
                        fleet.remove_shard("shard-0")
                finally:
                    fleet._shard_call = real_call
                # The shard stays in the ring and keeps serving its keys.
                assert gateway.shard_names() == ["shard-0", "shard-1"]
                results = [gateway.optimize(query) for query in queries]
                assert all(result.cached for result in results)

    def test_refuses_to_remove_last_shard(self, tmp_path):
        with ShardFleet(1, tmp_path / "socks", n_workers=2) as fleet:
            with pytest.raises(FleetError):
                fleet.remove_shard("shard-0")


# ---------------------------------------------------------------------- hedging


class TestHedging:
    def test_hedging_caps_tail_against_slow_shard(self, tmp_path):
        queries = SteinbrunnGenerator(51).queries(10, n_tables=4)
        with ShardFleet(
            2,
            tmp_path / "socks",
            n_workers=2,
            inject_latency_ms={"shard-1": 400.0},
        ) as fleet:
            with NetworkOptimizerGateway(
                fleet.endpoints(),
                overload_retries=100,
                hedge_multiplier=2.0,
                hedge_min_s=0.05,
            ) as gateway:
                started = time.monotonic()
                results = [gateway.optimize(query) for query in queries]
                elapsed = time.monotonic() - started
                stats = gateway.stats()
            assert all(result.plans for result in results)
            assert stats["hedged"] > 0
            assert stats["hedged_wins"] > 0
            # Without hedging, every key owned by the slow shard pays the
            # injected 400ms; hedged, the tail is capped near the budget.
            assert elapsed < 0.4 * len(queries) / 2, elapsed

    def test_hedging_off_by_default_preserves_singleflight(self, tmp_path):
        queries = SteinbrunnGenerator(52).queries(6, n_tables=4)
        with ShardFleet(2, tmp_path / "socks", n_workers=2) as fleet:
            with NetworkOptimizerGateway(
                fleet.endpoints(), overload_retries=100
            ) as gateway:
                for query in queries:
                    gateway.optimize(query)
                stats = gateway.stats()
            assert stats["hedged"] == 0
            assert stats["hedged_wins"] == 0
            per_shard = sum(
                shard["optimizations"] for shard in stats["shards"].values()
            )
            assert per_shard == len(queries)

    def test_refusing_primary_is_hedged_without_waiting(self, tmp_path):
        """A primary that answers ``overloaded`` inside the budget is hedged
        at once: the caller gets the replica's answer instead of the
        refusal (or a sleep of the refusing shard's ``retry_after_s``)."""
        query, filler = SteinbrunnGenerator(53).queries(2, n_tables=4)
        with (
            ServerThread(f"unix:{tmp_path / 'a.sock'}", n_workers=2) as alpha,
            ServerThread(f"unix:{tmp_path / 'b.sock'}", n_workers=2) as beta,
        ):
            servers = {"alpha": alpha, "beta": beta}
            shards = {
                name: f"unix:{server.server.address.path}"
                for name, server in servers.items()
            }
            # A 30 s budget never expires here: any hedge is the refusal's.
            with NetworkOptimizerGateway(
                shards, n_workers=2, hedge_multiplier=2.0, hedge_min_s=30.0
            ) as gateway:
                primary = servers[
                    gateway.shard_for(
                        fingerprint(query, gateway.settings, gateway.n_workers)
                    )
                ]
                # Degrade the key's owner and fill its one admission slot.
                primary.server.inject_latency_s = 2.0
                primary.server.max_in_flight = 1
                occupier = threading.Thread(
                    target=request,
                    args=(primary, {"op": "optimize", "query": query_to_dict(filler)}),
                    daemon=True,
                )
                occupier.start()
                deadline = time.monotonic() + 10.0
                while request(primary, {"op": "health"})["in_flight"] < 1:
                    assert time.monotonic() < deadline, "occupier never admitted"
                    time.sleep(0.01)
                started = time.monotonic()
                result = gateway.optimize(query)
                elapsed = time.monotonic() - started
                stats = gateway.stats()
                occupier.join(10.0)
            assert result.plans
            assert elapsed < 1.0, elapsed
            assert stats["hedged"] == 1
            assert stats["hedged_wins"] == 1

    def test_only_refusals_trigger_an_early_hedge(self):
        refused = NetworkOptimizerGateway._refused
        link = object()
        for kind in ("overloaded", "draining"):
            assert refused((link, {"ok": False, "error": {"type": kind}}, None))
        assert refused((link, None, ShardUnavailableError("s", "down", 0.1)))
        # Answers, even failed ones, are not re-asked of a second shard.
        assert not refused((link, {"ok": True, "result": {}}, None))
        for kind in ("bad-request", "optimization-failed", "protocol"):
            assert not refused((link, {"ok": False, "error": {"type": kind}}, None))
        assert not refused((link, None, RuntimeError("boom")))

    def test_hedge_parameters_validated(self):
        with pytest.raises(ValueError):
            NetworkOptimizerGateway({}, hedge_multiplier=-1.0)
        with pytest.raises(ValueError):
            NetworkOptimizerGateway({}, hedge_min_s=0.0)
