"""Per-layer metrics of a traced run, from spans plus front-door counters.

Layer names are the program's module names.  Durations are inclusive
(span end minus start) unless the metric says ``self``; a ``_share`` is a
fraction of the summed wall time of the timed phase's requests.  A layer a
workload never reaches reports 0.
"""

from __future__ import annotations

from common import p50
from repro.config import PlanSpace
from repro.core.counting import admissible_result_count_at_least_2

FEATURES = ("plain", "orders", "parametric")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = [
    ("aio.self_us_p50", "us"),
    ("aio.fast_path_share", "1"),
    ("aio.memo_hit_share", "1"),
    ("aio.rejections", "count"),
    ("io.decode_us_p50", "us"),
    ("gateway.lookup_us_p50", "us"),
    ("gateway.dp_runs", "count"),
    ("gateway.coalesced", "count"),
    ("fingerprint.canonicalize_us_p50", "us"),
    ("fingerprint.canonicalize_share", "1"),
    ("cache.hit_ratio", "1"),
    ("cache.get_us_p50", "us"),
    ("tiers.memory_hit_share", "1"),
    ("tiers.disk_hit_share", "1"),
    ("tiers.disk_get_us_p50", "us"),
    ("tiers.put_us_p50", "us"),
    ("tiers.bytes_per_entry", "bytes"),
    ("tiers.log_bytes", "bytes"),
    ("service.serve_entry_us_p50", "us"),
    ("remap.plans_per_request", "1"),
    ("remap.us_p50", "us"),
    ("envelope.select_us_p50", "us"),
    ("envelope.build_ms", "ms"),
    ("executors.partitions_per_miss", "1"),
    ("executors.dispatch_ms_p50", "ms"),
    ("executors.wall_share", "1"),
    ("partitioning.setup_share", "1"),
    *[
        (f"dp.{feature}.{name}", unit)
        for feature in FEATURES
        for name, unit in (
            ("partition_ms_sum", "ms"),
            ("partition_ms_max", "ms"),
            ("admissible_results", "count"),
            ("splits_considered", "count"),
            ("plans_considered", "count"),
            ("kept_ratio", "1"),
            ("work_inflation", "1"),
        )
    ],
    ("pruning.final_prune_ms", "ms"),
    ("simulator.simulate_ms", "ms"),
    ("net.round_trip_ms_p50", "ms"),
    ("net.client_codec_us_p50", "us"),
    ("net.shard_share_max", "1"),
    ("net.overload_retries", "count"),
    ("server.handle_ms_p50", "ms"),
    ("server.codec_us_p50", "us"),
    ("server.response_bytes_p50", "bytes"),
    ("unexplained_share", "1"),
    ("trace_overhead", "1"),
]


def _p50_or_0(values) -> float:
    values = list(values)
    return float(p50(values)) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _duration(span) -> int:
    return span[5] - span[4]


def _misses(forest):
    """(feature, n, space, dispatch wall ns, per-partition stats, pooled?)."""
    for span in forest.named("executors.dispatch", "executors.serial"):
        attrs = span[6] or {}
        if attrs.get("partitions"):
            yield (
                attrs["feature"],
                attrs["n"],
                attrs["space"],
                _duration(span),
                attrs["partitions"],
                span[3] == "executors.dispatch",
            )


def dp_metrics(forest) -> dict[str, float]:
    """Per feature: partition time and the WorkerStats counts of each miss."""
    metrics: dict[str, float] = {}
    by_feature: dict[str, list] = {feature: [] for feature in FEATURES}
    for feature, n, space, __, partitions, __ in _misses(forest):
        by_feature[feature].append((n, space, partitions))
    for feature, misses in by_feature.items():
        walls = [[row[0] * 1e3 for row in parts] for __, __, parts in misses]
        considered = sum(row[3] for __, __, parts in misses for row in parts)
        kept = sum(row[4] for __, __, parts in misses for row in parts)
        metrics[f"dp.{feature}.partition_ms_sum"] = _p50_or_0(sum(w) for w in walls)
        metrics[f"dp.{feature}.partition_ms_max"] = _p50_or_0(max(w) for w in walls)
        for column, name in ((1, "admissible_results"), (2, "splits_considered"), (3, "plans_considered")):
            metrics[f"dp.{feature}.{name}"] = _p50_or_0(
                sum(row[column] for row in parts) for __, __, parts in misses
            )
        metrics[f"dp.{feature}.kept_ratio"] = _ratio(kept, considered)
        metrics[f"dp.{feature}.work_inflation"] = _p50_or_0(
            sum(row[1] for row in parts)
            / admissible_result_count_at_least_2(n, 0, PlanSpace(space))
            for n, space, parts in misses
        )
    return metrics


def per_layer(forest, counters: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced timed phase."""
    roots = forest.named("request")
    wall = sum(_duration(root) for root in roots)
    durations = lambda *names: [_duration(span) for span in forest.named(*names)]  # noqa: E731

    def requests_with(*names):
        return [total for total in forest.per_request_sum_ns(*names) if total]

    lookups = forest.named("cache.get", "tiers.get")
    tier_lookups = forest.named("tiers.get")
    tier_hits = sum(1 for span in tier_lookups if span[6]["hit"])
    disk_reads = forest.named("tiers.disk_get")
    disk_hits = [span for span in disk_reads if span[6]["hit"]]
    misses = list(_misses(forest))
    dispatch_ms = [
        (wall_ns / 1e6)
        - (max(row[0] for row in parts) if pooled else sum(row[0] for row in parts)) * 1e3
        for __, __, __, wall_ns, parts, pooled in misses
    ]
    partition_ns = sum(durations("dp.partition"))

    metrics = {
        "aio.self_us_p50": _p50_or_0(
            forest.self_ns(span[0]) / 1e3 for span in forest.named("aio.optimize")
        ),
        "aio.fast_path_share": _ratio(counters.get("aio_fast_path", 0), counters.get("aio_requests", 0)),
        "aio.memo_hit_share": _ratio(counters.get("aio_memo_hits", 0), counters.get("aio_requests", 0)),
        "aio.rejections": counters.get("aio_rejections", 0),
        "io.decode_us_p50": _p50_or_0(ns / 1e3 for ns in durations("io.decode")),
        "gateway.lookup_us_p50": _p50_or_0(
            forest.self_ns(span[0]) / 1e3
            for span in forest.named(
                "gateway.optimize", "gateway.serve_if_cached", "gateway.optimize_batch"
            )
        ),
        "gateway.dp_runs": counters["dp_runs"],
        "gateway.coalesced": counters.get("coalesced", 0),
        "fingerprint.canonicalize_us_p50": _p50_or_0(
            ns / 1e3 for ns in durations("fingerprint.canonicalize")
        ),
        "fingerprint.canonicalize_share": _ratio(sum(durations("fingerprint.canonicalize")), wall),
        "cache.hit_ratio": _ratio(sum(1 for span in lookups if span[6]["hit"]), len(lookups)),
        "cache.get_us_p50": _p50_or_0(_duration(span) / 1e3 for span in lookups),
        "tiers.memory_hit_share": _ratio(tier_hits - len(disk_hits), len(tier_lookups)),
        "tiers.disk_hit_share": _ratio(len(disk_hits), len(tier_lookups)),
        "tiers.disk_get_us_p50": _p50_or_0(_duration(span) / 1e3 for span in disk_hits),
        "tiers.put_us_p50": _p50_or_0(ns / 1e3 for ns in durations("tiers.put")),
        "tiers.bytes_per_entry": counters.get("tier_bytes_per_entry", 0),
        "tiers.log_bytes": counters.get("tier_log_bytes", 0),
        "service.serve_entry_us_p50": _p50_or_0(ns / 1e3 for ns in durations("service.serve_entry")),
        "remap.plans_per_request": _ratio(len(durations("remap.remap_plan")), len(roots)),
        "remap.us_p50": _p50_or_0(ns / 1e3 for ns in durations("remap.remap_plan")),
        "envelope.select_us_p50": _p50_or_0(ns / 1e3 for ns in durations("envelope.select")),
        "envelope.build_ms": _p50_or_0(ns / 1e6 for ns in durations("envelope.build")),
        "executors.partitions_per_miss": _ratio(
            sum(len(parts) for __, __, __, __, parts, __ in misses), len(misses)
        ),
        "executors.dispatch_ms_p50": _p50_or_0(dispatch_ms),
        "executors.wall_share": _ratio(
            sum(wall_ns for __, __, __, wall_ns, __, __ in misses), wall
        ),
        "partitioning.setup_share": _ratio(
            sum(durations("partitioning.admissible_results_by_size")), partition_ns
        ),
        **dp_metrics(forest),
        "pruning.final_prune_ms": _p50_or_0(ns / 1e6 for ns in durations("pruning.final_prune")),
        "simulator.simulate_ms": _p50_or_0(ns / 1e6 for ns in durations("simulator.simulate")),
        "net.round_trip_ms_p50": _p50_or_0(ns / 1e6 for ns in requests_with("net.send", "net.recv")),
        "net.client_codec_us_p50": _p50_or_0(ns / 1e3 for ns in requests_with("net.codec")),
        "net.shard_share_max": counters.get("shard_share_max", 0.0),
        "net.overload_retries": counters.get("overload_retries", 0),
        "server.handle_ms_p50": _p50_or_0(ns / 1e6 for ns in durations("server.handle")),
        "server.codec_us_p50": _p50_or_0(ns / 1e3 for ns in requests_with("server.codec")),
        "server.response_bytes_p50": _p50_or_0(
            span[6]["bytes"] for span in forest.named("server.handle")
        ),
        "unexplained_share": _ratio(sum(forest.self_ns(root[0]) for root in roots), wall),
        "trace_overhead": counters["trace_overhead"],
    }
    if list(metrics) != [name for name, __ in PER_LAYER]:
        raise RuntimeError("per-layer metrics drifted from PER_LAYER")
    return metrics
