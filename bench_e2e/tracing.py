"""Span tracing from outside the program: timing wrappers at layer boundaries.

The benchmark wraps layer functions at the module (or class) attribute their
caller looks up, for the traced run only, and restores the originals
afterwards.  Each wrapped call records a span: name, start, end, parent
span, and a request id shared by every span of one request.  Spans stay in
memory and are written out once per process, when the process is done:

* the benchmark process writes its spans after the traced run;
* pool workers inherit the wrappers when the pool forks; each registers a
  ``multiprocessing`` finalizer on its first span and writes at exit;
* shard servers start through ``shard_launcher.py``, which installs the
  wrappers, runs the server and writes when the server returns.

The request id rides the query's ``name`` (the benchmark names every query
after its request), so a partition task in a pool worker or a frame handled
by a shard server joins its request without any change to the program.
Spans from another process are attached to the innermost span of the same
request that contains them in time; the monotonic clock is shared by every
process on the machine.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass

_current: contextvars.ContextVar = contextvars.ContextVar("bench_e2e_span", default=None)


@dataclass(frozen=True)
class _Context:
    span: str
    request: str | None
    pid: int


class Tracer:
    """Collects spans in memory for one process and writes them on request."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count()

    def _adopt_process(self) -> None:
        """First span in a forked child: drop inherited spans, dump at exit."""
        import multiprocessing.util

        self.pid = os.getpid()
        self.spans = []
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def new_id(self) -> str:
        if os.getpid() != self.pid:
            self._adopt_process()
        return f"{self.pid}:{next(self._ids)}"

    def record(self, span, parent, request, name, start, end, attrs=None) -> None:
        self.spans.append((span, parent, request, name, start, end, attrs))

    def dump(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


def _parent(tracer: Tracer, request_of, args):
    context = _current.get()
    if context is not None and context.pid == tracer.pid == os.getpid():
        return context.span, context.request
    request = request_of(args) if request_of is not None else None
    return None, request


def sync_wrapper(tracer: Tracer, function, name, request_of=None, note=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = tracer.new_id()
        parent, request = _parent(tracer, request_of, args)
        token = _current.set(_Context(span, request, tracer.pid))
        start = time.perf_counter_ns()
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            _current.reset(token)
            attrs = note(args, result) if note is not None else None
            tracer.record(span, parent, request, name, start, end, attrs)

    return wrapper


def async_wrapper(tracer: Tracer, function, name, request_of=None, note=None):
    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        span = tracer.new_id()
        parent, request = _parent(tracer, request_of, args)
        token = _current.set(_Context(span, request, tracer.pid))
        start = time.perf_counter_ns()
        result = None
        try:
            result = await function(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            _current.reset(token)
            attrs = note(args, result) if note is not None else None
            tracer.record(span, parent, request, name, start, end, attrs)

    return wrapper


def _feature(settings) -> str:
    if settings.parametric:
        return "parametric"
    if settings.consider_orders:
        return "orders"
    return "plain"


def _partition_stats(results) -> list:
    return [
        [
            result.stats.wall_time_s,
            result.stats.admissible_results,
            result.stats.splits_considered,
            result.stats.plans_considered,
            result.stats.plans_kept,
            result.stats.backend_used,
        ]
        for result in results
    ]


def dispatch_wrapper(tracer: Tracer, function, name):
    """Wrap ``submit_partitions``: one span from submit to the last result."""

    @functools.wraps(function)
    def wrapper(self, query, n_partitions, settings):
        span = tracer.new_id()
        parent, request = _parent(tracer, None, ())
        start = time.perf_counter_ns()
        futures = function(self, query, n_partitions, settings)
        remaining = [len(futures)]
        lock = threading.Lock()

        def done(__):
            with lock:
                remaining[0] -= 1
                last = remaining[0] == 0
            if not last:
                return
            end = time.perf_counter_ns()
            try:
                stats = _partition_stats([future.result() for future in futures])
            except Exception:  # noqa: BLE001 - a failed dispatch has no stats
                stats = []
            tracer.record(
                span, parent, request, name, start, end,
                {
                    "feature": _feature(settings),
                    "n": query.n_tables,
                    "space": settings.plan_space.value,
                    "partitions": stats,
                },
            )

        for future in futures:
            future.add_done_callback(done)
        return futures

    return wrapper


def _serial_note(args, result):
    __, query, n_partitions, settings = args
    return {
        "feature": _feature(settings),
        "n": query.n_tables,
        "space": settings.plan_space.value,
        "partitions": _partition_stats(result or []),
    }


def _query_name(args):
    return getattr(args[0], "name", None)


def _dict_name(args):
    """The request of a query decoded before it is sent (its dict's name)."""
    try:
        return args[0]["name"]
    except (KeyError, TypeError, IndexError):
        return None


def _frame_request(args):
    try:
        return args[1]["query"]["name"]
    except (KeyError, TypeError, IndexError):
        return None


def _hit(args, result):
    return {"hit": result is not None}


def _size(args, result):
    return {"bytes": len(result) if result is not None else 0}


#: ``(module, attribute path, span name[, kind[, note[, request_of]]])``.
#: ``kind`` is ``None`` (plain call), ``"async"`` or ``"dispatch"``;
#: ``note(args, result)`` adds attributes to the span; ``request_of(args)``
#: names the request of a span outside any request span of its process (a
#: process's part of a request, or a query decoded before it is sent).
#: Client targets are installed in the benchmark process (pool workers
#: inherit them); server targets in traced shard servers.  Both install
#: the shared ones: the service stack below the front doors.
SHARED_TARGETS = [
    ("repro.service.service", "canonicalize", "fingerprint.canonicalize"),
    ("repro.service.gateway", "canonicalize", "fingerprint.canonicalize"),
    ("repro.service.service", "remap_plan", "remap.remap_plan"),
    ("repro.service.service", "final_prune", "pruning.final_prune"),
    ("repro.service.service", "simulate_mpq_run", "simulator.simulate"),
    ("repro.service.service", "build_envelope_index", "envelope.build"),
    ("repro.service.service", "OptimizerService.serve_entry", "service.serve_entry"),
    ("repro.service.service", "OptimizerService.run_misses_with_entries", "service.run_misses"),
    ("repro.core.envelope", "EnvelopeIndex.select", "envelope.select"),
    ("repro.service.gateway", "ShardedOptimizerGateway.optimize", "gateway.optimize"),
    ("repro.cluster.executors", "SerialPartitionExecutor.map_partitions", "executors.serial", None, _serial_note),
    ("repro.cluster.executors", "optimize_partition", "dp.partition", None, None, _query_name),
    ("repro.core.vecdp", "admissible_results_by_size", "partitioning.admissible_results_by_size"),
    ("repro.core.fastdp", "admissible_results_by_size", "partitioning.admissible_results_by_size"),
]

CLIENT_TARGETS = [
    ("repro.query.io", "query_from_dict", "io.decode", None, None, _dict_name),
    ("repro.service.aio", "canonicalize", "fingerprint.canonicalize"),
    ("repro.service.net", "canonicalize", "fingerprint.canonicalize"),
    ("repro.service.cache", "MemoryTier.get", "cache.get", None, _hit),
    ("repro.service.cache", "MemoryTier.probe", "cache.get", None, _hit),
    ("repro.service.gateway", "ShardedOptimizerGateway.optimize_batch", "gateway.optimize_batch"),
    ("repro.service.gateway", "ShardedOptimizerGateway.serve_if_cached", "gateway.serve_if_cached"),
    ("repro.service.aio", "AsyncOptimizerGateway.optimize", "aio.optimize", "async"),
    ("repro.cluster.executors", "PersistentProcessPoolExecutor.submit_partitions", "executors.dispatch", "dispatch"),
    ("repro.service.net", "NetworkOptimizerGateway.optimize", "net.optimize"),
    ("repro.service.net", "query_to_dict", "net.codec"),
    ("repro.service.net", "settings_to_wire", "net.codec"),
    ("repro.service.net", "result_from_wire", "net.codec"),
    ("repro.service.net", "send_frame", "net.send"),
    ("repro.service.net", "recv_frame", "net.recv"),
    ("repro.cluster.network", "encode_frame", "net.codec"),
    ("repro.cluster.network", "decode_frame_payload", "net.codec"),
    *SHARED_TARGETS,
]

SERVER_TARGETS = [
    ("repro.service.server", "ShardServer._optimize_frame", "server.handle", None, _size, _frame_request),
    ("repro.service.server", "query_from_dict", "server.codec"),
    ("repro.service.server", "settings_from_wire", "server.codec"),
    ("repro.service.server", "result_to_wire", "server.codec"),
    ("repro.service.server", "encode_frame", "server.codec"),
    ("repro.service.tiers", "TieredPlanCache.get", "tiers.get", None, _hit),
    ("repro.service.tiers", "TieredPlanCache.probe", "tiers.get", None, _hit),
    ("repro.service.tiers", "TieredPlanCache.put", "tiers.put"),
    ("repro.service.tiers", "DiskTier.peek", "tiers.disk_get", None, _hit),
    *SHARED_TARGETS,
]


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value) for a target."""
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    value = owner.__dict__[attribute] if classes else getattr(owner, attribute)
    return owner, attribute, value


class Installation:
    """Wrappers installed for one traced run; :meth:`remove` restores them."""

    def __init__(self, tracer: Tracer, targets) -> None:
        self.originals: list[tuple[object, str, object]] = []
        for target in targets:
            module_name, path, name, *rest = target
            kind = rest[0] if len(rest) > 0 else None
            note = rest[1] if len(rest) > 1 else None
            request_of = rest[2] if len(rest) > 2 else None
            owner, attribute, original = _resolve(module_name, path)
            if kind == "async":
                wrapped = async_wrapper(tracer, original, name, request_of, note)
            elif kind == "dispatch":
                wrapped = dispatch_wrapper(tracer, original, name)
            else:
                wrapped = sync_wrapper(tracer, original, name, request_of, note)
            setattr(owner, attribute, wrapped)
            self.originals.append((owner, attribute, original))

    def remove(self) -> None:
        for owner, attribute, original in reversed(self.originals):
            setattr(owner, attribute, original)

    def restored(self) -> list[str]:
        """Targets whose attribute is *not* the original again (should be [])."""
        wrong = []
        for owner, attribute, original in self.originals:
            current = (
                owner.__dict__.get(attribute)
                if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            if current is not original:
                wrong.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
        return wrong


class RequestSpan:
    """The benchmark's own root span around one request (``name="request"``)."""

    def __init__(self, tracer: Tracer | None, request: str) -> None:
        self.tracer = tracer
        self.request = request

    def __enter__(self):
        if self.tracer is not None:
            self.span = self.tracer.new_id()
            self.token = _current.set(_Context(self.span, self.request, self.tracer.pid))
            self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            end = time.perf_counter_ns()
            _current.reset(self.token)
            self.tracer.record(
                self.span, None, self.request, "request", self.start, end, None
            )


def load_spans(out_dir: str) -> list[tuple]:
    """Every span file the traced processes wrote."""
    spans = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(out_dir, entry)) as handle:
                spans.extend(tuple(json.loads(line)) for line in handle)
    return spans


class SpanForest:
    """Spans joined into per-request trees, with self time per span.

    A root span from another process (a partition task, a shard's frame
    handler) is attached to the innermost span of the same request that
    contains it in time.
    """

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = {span[0]: span for span in spans}
        self.children: dict[str, list[str]] = {}
        by_request: dict[str, list[tuple]] = {}
        for span in spans:
            if span[2] is not None:
                by_request.setdefault(span[2], []).append(span)
        for span in spans:
            parent = span[1]
            if parent is None and span[3] != "request" and span[2] is not None:
                parent = self._container(span, by_request.get(span[2], []))
            if parent is not None:
                self.children.setdefault(parent, []).append(span[0])

    @staticmethod
    def _container(span, candidates):
        pid = span[0].split(":")[0]
        best = None
        for other in candidates:
            if other[0].split(":")[0] == pid:
                continue
            if other[4] <= span[4] and span[5] <= other[5]:
                if best is None or other[5] - other[4] < best[5] - best[4]:
                    best = other
        return best[0] if best is not None else None

    def duration_ns(self, span_id: str) -> int:
        span = self.spans[span_id]
        return span[5] - span[4]

    def self_ns(self, span_id: str) -> int:
        """Duration minus the part of it that child spans cover."""
        span = self.spans[span_id]
        intervals = sorted(
            (max(self.spans[child][4], span[4]), min(self.spans[child][5], span[5]))
            for child in self.children.get(span_id, ())
        )
        covered = 0
        current_start = current_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if current_end is None or start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            covered += current_end - current_start
        return (span[5] - span[4]) - covered

    def named(self, *names: str) -> list[tuple]:
        return [span for span in self.spans.values() if span[3] in names]

    def per_request_sum_ns(self, *names: str) -> list[int]:
        """Per request (root span), the summed duration of spans ``names``."""
        totals: dict[str, int] = {}
        for span in self.named(*names):
            if span[2] is not None:
                totals[span[2]] = totals.get(span[2], 0) + span[5] - span[4]
        return [totals.get(root[2], 0) for root in self.named("request")]
