"""Shared pieces of the end-to-end benchmark: statistics, requests, checks.

Everything here is workload-independent: the percentile rule, open-loop
accounting, request construction (fresh query objects, seeded relabeling),
answer checks against a serial reference, and the environment record.
"""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field

from repro.core.envelope import best_index_at
from repro.plans.plan import plan_signature, plan_tie_key
from repro.query import io as query_io


# ------------------------------------------------------------------ statistics


def p50(values: list[float]) -> float:
    """Nearest-rank median (the value at rank ``ceil(n/2)``)."""
    if not values:
        raise ValueError("p50 of no samples")
    ordered = sorted(values)
    return ordered[math.ceil(len(ordered) / 2) - 1]


def interquartile_mean(values) -> float:
    """Mean of ``values`` without their lowest and highest quarter.

    ``n // 4`` values are dropped at each end: for 10 values the mean of
    the middle 6, for 4 the mean of the middle 2, for 1 the value itself.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def tail(values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  Nearest rank ``r`` of ``n`` ordered
    samples is the ``p = 100 r / n`` percentile; keeping ``beyond`` samples
    past it means ``r = n - beyond``.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"tail needs more than {beyond} samples, got {n}")
    rank = n - beyond
    return sorted(values)[rank - 1], 100.0 * rank / n, n


@dataclass
class OpenLoopRecord:
    """Open-loop accounting: latency from due time, generator lateness.

    Every request has a due time; ``sent`` is when the generator actually
    issued it and ``done`` when the answer arrived (``None`` if it never
    did).  All times are seconds on one monotonic clock.
    """

    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float | None] = field(default_factory=list)

    def add(self, due: float) -> int:
        self.due.append(due)
        self.sent.append(math.nan)
        self.done.append(None)
        return len(self.due) - 1

    def latency_ms(self, index: int) -> float:
        """A completed request's latency, timed from when it was due."""
        return (self.done[index] - self.due[index]) * 1e3

    def lateness_ms(self) -> list[float]:
        """How late the generator issued each request."""
        return [
            (sent - due) * 1e3
            for due, sent in zip(self.due, self.sent)
            if not math.isnan(sent)
        ]

    def backlog(self, due_by: float, at: float) -> int:
        """Requests due by ``due_by`` that had not completed by ``at``."""
        return sum(
            1
            for due, done in zip(self.due, self.done)
            if due <= due_by and (done is None or done > at)
        )


# -------------------------------------------------------------------- requests


def relabel_dict(data: dict, permutation: list[int]) -> dict:
    """A query dict with table ``i`` renumbered to ``permutation[i]``."""
    tables = [None] * len(data["tables"])
    for original, table in enumerate(data["tables"]):
        tables[permutation[original]] = table
    predicates = [
        dict(
            predicate,
            left_table=permutation[predicate["left_table"]],
            right_table=permutation[predicate["right_table"]],
        )
        for predicate in data["predicates"]
    ]
    return {"name": data["name"], "tables": tables, "predicates": predicates}


@dataclass(frozen=True)
class RequestSpec:
    """One request, described without holding a query object.

    ``pool`` indexes the workload's query pool (kept as dicts), ``perm`` is
    the relabeling applied (``None``: the pool numbering).  The object the
    program receives is built fresh from this description per request, so
    no request shares a query object with another.
    """

    rid: str
    pool: int
    feature: str
    workers: int
    theta: float | None = None
    tenant: str = "default"
    perm: tuple[int, ...] | None = None


def seeded_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    """A seeded relabeling of ``n`` tables that is never the identity."""
    while True:
        permutation = list(range(n))
        rng.shuffle(permutation)
        if permutation != list(range(n)):
            return tuple(permutation)


def build_query(pool_dicts, spec: RequestSpec):
    """A fresh Query for ``spec``, decoded by the program's own codec.

    The query's name carries the request id.
    """
    data = pool_dicts[spec.pool]
    if spec.perm is not None:
        data = relabel_dict(data, list(spec.perm))
    return query_io.query_from_dict(dict(data, name=spec.rid))


def pool_to_dicts(queries) -> list[dict]:
    return [query_io.query_to_dict(query) for query in queries]


# ---------------------------------------------------------------------- checks


def answer(result) -> tuple:
    """An answer reduced to what the checks read: plain nested tuples.

    ``(costs of every plan, best plan's cost, structural signature of
    every plan)``.  Keeping this instead of the result object keeps the
    benchmark's own memory out of the garbage collector's way (tuples of
    numbers and strings are not tracked), and two answers compare equal
    exactly when their plans have the same costs and the same trees.
    """
    return (
        tuple(plan.cost for plan in result.plans),
        result.best.cost if result.plans else None,
        tuple(plan_signature(plan) for plan in result.plans),
    )


def keep_answer(run: Pass, spec: RequestSpec, result) -> None:
    """Record a completed request's :func:`answer` and, for a miss, its partitions."""
    run.results[spec.rid] = answer(result)
    run.specs[spec.rid] = spec
    run.pools.add(spec.pool)
    if not result.cached:
        run.miss_partitions[result.n_partitions] = (
            run.miss_partitions.get(result.n_partitions, 0) + 1
        )


def _near(cost: tuple, reference: tuple) -> bool:
    """Equal within the envelope pruning's tie slack, component-wise."""
    return len(cost) == len(reference) and all(
        abs(value - expected) <= 1e-9 * max(1.0, abs(expected))
        for value, expected in zip(cost, reference)
    )


def _leaf_tables(signature: tuple) -> list[int]:
    if signature[0] == 0:
        return [signature[1]]
    return _leaf_tables(signature[2]) + _leaf_tables(signature[3])


def check_answer(served: tuple, reference_plans, spec: RequestSpec) -> str | None:
    """``None`` if the :func:`answer` ``served`` is right for ``spec``.

    ``reference_plans`` is the serial (one-partition) frontier of the
    request's query.  Every served plan must join each table exactly once.
    An unbound answer must have the reference's frontier size and best-plan
    cost; a θ-bound answer must be one plan with the cost of the plan the
    reference rule :func:`~repro.core.envelope.best_index_at` picks at that
    θ.  Plan shapes are not compared: plans of equal cost may legitimately
    differ between partition counts.  Costs are compared exactly, except
    parametric ones: lower-envelope pruning treats plans within a relative
    ``1e-9`` of each other as ties (:mod:`repro.cost.parametric`), so which
    of two such near-ties survives may depend on the partitioning.
    """
    costs, best_cost, signatures = served
    same = _near if spec.feature == "parametric" else tuple.__eq__
    n_tables = reference_plans[0].n_tables
    for signature in signatures:
        if sorted(_leaf_tables(signature)) != list(range(n_tables)):
            return "served plan does not join every table exactly once"
    if spec.theta is not None:
        if len(costs) != 1:
            return f"θ-bound answer has {len(costs)} plans"
        reference_costs = [plan.cost for plan in reference_plans]
        expected = reference_costs[best_index_at(reference_costs, spec.theta)]
        if not same(costs[0], expected):
            return f"θ={spec.theta}: cost {costs[0]}, reference {expected}"
        return None
    if len(costs) != len(reference_plans):
        return f"frontier has {len(costs)} plans, reference {len(reference_plans)}"
    expected = min(reference_plans, key=plan_tie_key).cost
    if not same(best_cost, expected):
        return f"best cost {best_cost}, reference {expected}"
    return None


def check_answers(run: Pass, rids, reference) -> None:
    """Check the kept answers of ``rids`` now, then drop them from ``run``.

    ``reference(spec)`` gives a request's serial frontier.  A wrong answer
    goes to ``run.errors``.  Closed-loop parts call this when they end, so
    the client's memory does not grow with the program's throughput.
    """
    for rid in rids:
        spec = run.specs.pop(rid, None)
        served = run.results.pop(rid, None)
        if served is None:
            continue
        problem = check_answer(served, reference(spec), spec)
        if problem is not None:
            run.errors[rid] = problem


# ----------------------------------------------------------------- environment


def load_average() -> list[float]:
    return [round(value, 2) for value in os.getloadavg()]


def environment() -> dict:
    """What the numbers were measured on."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.bench.traffic import FEATURE_SETTINGS
    from repro.core.worker import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": _cpu_model(),
        "backends": {
            feature: resolve_backend(settings).name
            for feature, settings in FEATURE_SETTINGS.items()
        },
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _descendants(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children = [int(child) for child in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found.append(child)
            found.extend(_descendants(child))
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssWatch:
    """Peak RSS of this process plus every live descendant, summed.

    Call :meth:`sample` while the serving processes are alive (before
    teardown); each descendant's high-water mark is kept by pid, so a
    process that exits later still counts with its peak.
    """

    def __init__(self) -> None:
        self._peaks: dict[int, int] = {}

    def sample(self) -> None:
        for pid in _descendants(os.getpid()):
            self._peaks[pid] = max(self._peaks.get(pid, 0), _peak_rss_kb(pid))

    def total_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + sum(self._peaks.values())) / 1024.0


# ------------------------------------------------------------------ one pass


class SetupSchedule:
    """When a pass times its repeated set-ups.

    The first comes before the timed phase and serves it; the others are
    spread evenly over the timed phase (each torn down at once), so their
    median samples the host across the whole run rather than one stretch
    of it.  The traced pass sets up once: its set-up time is not reported.
    """

    def __init__(self, config: dict, tracer) -> None:
        self.spread = 0 if tracer is not None else config["setup_repeats"] - 1
        self.done = 0

    def due(self, progress: float) -> bool:
        """Whether a spread set-up is due with ``progress`` (0 to 1) of the timed phase done."""
        if self.done < self.spread and progress * self.spread >= self.done + 1 - 1e-9:
            self.done += 1
            return True
        return False


@dataclass
class Pass:
    """What one untraced or traced pass of a workload observed."""

    #: Seconds of each repeated set-up (the metric is their median).
    setup_s: list[float] = field(default_factory=list)
    #: Spec of each completed request whose answer is kept for checking.
    specs: dict[str, RequestSpec] = field(default_factory=dict)
    #: Latency (ms) of each completed timed request, by request id.
    latency_ms: dict[str, float] = field(default_factory=dict)
    #: The :func:`answer` of each completed request, until it is checked.
    results: dict[str, object] = field(default_factory=dict)
    #: Partition count of each answer that ran DP (was not served cached).
    miss_partitions: dict[int, int] = field(default_factory=dict)
    #: Pool queries of every completed request.
    pools: set[int] = field(default_factory=set)
    #: Request id -> why it failed (error raised, refused, wrong answer).
    errors: dict[str, str] = field(default_factory=dict)
    #: Requests issued (open-loop and closed-loop parts).
    attempted: int = 0
    #: Request ids of each part of the timed phase the latency metrics
    #: average over: time segments, or (mpq-cold) join-graph kinds.
    segments: list[list[str]] = field(default_factory=list)
    #: Closed-loop requests per second, one value per measured segment.
    qps: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: DP runs expected vs. counted by the front door(s).
    dp_expected: int = 0
    dp_counted: int = 0
    #: Counters for the per-layer metrics (timed phase only).
    counters: dict = field(default_factory=dict)
    #: Free-form facts for the report (lateness, ladder, tail percentile).
    notes: dict = field(default_factory=dict)


#: Every end-to-end metric, with its unit, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("qps", "1/s"),
    ("plain_p50_ms", "ms"),
    ("orders_p50_ms", "ms"),
    ("parametric_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def end_to_end(run: Pass) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass.

    Each latency metric is the :func:`interquartile_mean`, over the pass's
    segments, of the segment's nearest-rank p50, and ``qps`` the same over
    its closed-loop parts.  A shared host can run fast and slow for
    stretches of tens of seconds: a median snaps to whichever lasted longer
    and a plain mean follows a single stalled segment, while the
    interquartile mean weighs the stretches by their length and drops the
    extreme segments.  ``setup_s`` is the median of the repeated set-ups.
    The tail
    (highest nearest-rank percentile with 10 samples beyond, over the whole
    timed phase) goes into the notes with its percentile and sample count.
    """
    value, percentile, n = tail(list(run.latency_ms.values()))
    run.notes["tail_ms"] = {"value": value, "percentile": round(percentile, 3), "n": n}
    run.notes["setup_s_each"] = [round(seconds, 4) for seconds in run.setup_s]
    run.notes["qps_each"] = [round(rate, 2) for rate in run.qps]
    run.notes["p50_ms_each"] = [
        round(p50([run.latency_ms[rid] for rid in segment if rid in run.latency_ms]), 4)
        for segment in run.segments
    ]
    return {
        "setup_s": statistics.median(run.setup_s),
        "p50_ms": segment_p50(run),
        "qps": interquartile_mean(run.qps),
        "plain_p50_ms": segment_p50(run, "plain"),
        "orders_p50_ms": segment_p50(run, "orders"),
        "parametric_p50_ms": segment_p50(run, "parametric"),
        "peak_rss_mb": run.peak_rss_mb,
    }


def segment_p50(run: Pass, feature: str | None = None) -> float:
    """Interquartile mean over ``run``'s segments of each segment's p50 (of ``feature``)."""
    latency = run.latency_ms
    return interquartile_mean(
        p50(
            [
                latency[rid]
                for rid in segment
                if rid in latency and feature in (None, run.specs[rid].feature)
            ]
        )
        for segment in run.segments
    )
